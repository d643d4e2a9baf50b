(* T3c/T3d — Invalid Structure and Discouraged Field lints.  2 + 2
   lints, matching Table 1's taxonomy. *)

open Types
open Helpers

(* Pass-path scans: each answers "could the failure path report
   anything?" without building, so the common compliant certificate
   allocates nothing.  The failure paths below are unchanged and
   produce the detail strings. *)

(* An ASCII CN (as code points) equal to a SAN payload, ignoring ASCII
   case — the failure path's [lowercase v = lowercase cn] on the CN's
   UTF-8 form, which for ASCII code points is the code points
   themselves. *)
let rec ascii_ci_equal cps s i =
  i >= String.length s
  || (Array.unsafe_get cps i lsr 7 = 0
      && Char.lowercase_ascii (Char.unsafe_chr (Array.unsafe_get cps i))
         = Char.lowercase_ascii (String.unsafe_get s i)
      && ascii_ci_equal cps s (i + 1))

let rec cn_in_sans cps = function
  | [] -> false
  | ( X509.General_name.Dns_name s | X509.General_name.Rfc822_name s
    | X509.General_name.Uri s ) :: rest ->
      (String.length s = Array.length cps && ascii_ci_equal cps s 0)
      || cn_in_sans cps rest
  | _ :: rest -> cn_in_sans cps rest

let is_ip = function X509.General_name.Ip_address _ -> true | _ -> false

(* Some subject CN, and every one of them provably present in a SAN
   without an IP address (whose text form the failure path compares
   too).  [false] whenever unsure; an empty CN matches the failure
   path's [""] entry of any non-IP SAN name. *)
let rec cns_all_in_san sans ~seen = function
  | [] -> seen
  | (v : Ctx.aval) :: rest ->
      if v.Ctx.a_attr <> X509.Attr.Common_name then cns_all_in_san sans ~seen rest
      else
        let cps = v.Ctx.a_cps in
        ((Array.length cps = 0 && sans <> []) || cn_in_sans cps sans)
        && cns_all_in_san sans ~seen:true rest

let duplicate (a : Ctx.aval) (b : Ctx.aval) =
  a.Ctx.a_attr = b.Ctx.a_attr
  && a.Ctx.a_attr <> X509.Attr.Domain_component
  && a.Ctx.a_attr <> X509.Attr.Organizational_unit_name

let lints : Types.t list =
  [
    (* Invalid Structure (2) *)
    mk ~name:"w_cab_subject_common_name_not_in_san"
      ~description:
        "If present, the subject CN must duplicate a value from the SAN \
         extension (CA/B BR 7.1.4.2.2)."
      ~source:Cab_br ~level:Must ~nc_type:Invalid_structure ~effective:cab_br_date
      (fun ctx ->
        let sans = san_names ctx in
        if (not (List.exists is_ip sans))
           && cns_all_in_san sans ~seen:false ctx.Ctx.subject_vals
        then Pass
        else
        let cns =
          List.map (fun (v : Ctx.aval) -> Unicode.Codec.utf8_of_cps v.Ctx.a_cps)
            (subject_values ~attrs:[ X509.Attr.Common_name ] ctx)
        in
        if cns = [] then Na
        else begin
          let san_values =
            List.map snd (gn_strings (san_names ctx))
            @ List.map
                (fun gn ->
                  match gn with X509.General_name.Ip_address _ -> X509.General_name.text gn | _ -> "")
                (san_names ctx)
          in
          let lower = String.lowercase_ascii in
          let missing =
            List.filter
              (fun cn -> not (List.exists (fun v -> lower v = lower cn) san_values))
              cns
          in
          emit Must
            (List.map (fun cn -> Printf.sprintf "CN %S not present in SAN" cn) missing)
        end);
    mk ~name:"e_subject_duplicate_attribute"
      ~description:
        "Subject attribute types must not be repeated (duplicate CNs confuse \
         entity extraction)."
      ~source:Community ~level:Must ~nc_type:Invalid_structure ~effective:cab_br_date
      (fun ctx ->
        if not (any_pair duplicate ctx.Ctx.subject_vals) then Pass
        else
        let counts = Hashtbl.create 8 in
        List.iter
          (fun (v : Ctx.aval) ->
            Hashtbl.replace counts v.Ctx.a_attr
              (1 + try Hashtbl.find counts v.Ctx.a_attr with Not_found -> 0))
          (subject_values ctx);
        let bad =
          Hashtbl.fold
            (fun attr n acc ->
              if n > 1 && attr <> X509.Attr.Domain_component
                 && attr <> X509.Attr.Organizational_unit_name
              then Printf.sprintf "%s appears %d times" (X509.Attr.name attr) n :: acc
              else acc)
            counts []
        in
        emit Must bad);
    (* Discouraged Field (2) *)
    mk ~name:"w_cab_subject_contain_extra_common_name"
      ~description:
        "Subjects should carry at most one commonName (deprecated field; extra \
         CNs are discouraged)."
      ~source:Cab_br ~level:Should_not ~nc_type:Discouraged_field ~effective:cab_br_date
      (fun ctx ->
        let cns = subject_values ~attrs:[ X509.Attr.Common_name ] ctx in
        if List.length cns > 1 then
          Warn [ Printf.sprintf "subject contains %d commonNames" (List.length cns) ]
        else Pass);
    mk ~name:"w_ext_san_uri_discouraged"
      ~description:
        "URI entries in the SAN of TLS server certificates are discouraged \
         (CA/B BR restrict SAN to dNSName and iPAddress)."
      ~source:Cab_br ~level:Should_not ~nc_type:Discouraged_field ~effective:cab_br_date
      (fun ctx ->
        emit Should_not
          (List.filter_map
             (fun gn ->
               match gn with
               | X509.General_name.Uri u -> Some (Printf.sprintf "SAN contains URI %S" u)
               | _ -> None)
             (san_names ctx)));
  ]
