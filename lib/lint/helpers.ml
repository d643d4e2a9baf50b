let smtputf8_oid = Asn1.Oid.register (Asn1.Oid.of_string_exn "1.3.6.1.5.5.7.8.9")

let rfc5280_date = Asn1.Time.make 2008 5 1
let idna2008_date = Asn1.Time.make 2010 8 1
let cab_br_date = Asn1.Time.make 2012 7 1
let community_date = Asn1.Time.make 2015 1 1
let rfc8399_date = Asn1.Time.make 2018 5 1
let rfc9598_date = Asn1.Time.make 2024 6 1
let rfc9549_date = Asn1.Time.make 2024 7 1

let emit level details =
  match details with
  | [] -> Types.Pass
  | _ -> (
      match Types.severity_of_level level with
      | Types.Error -> Types.Fail details
      | Types.Warning -> Types.Warn details)

let describe_cp = Unicode.Cp.to_string

let values_of vals attrs =
  match attrs with
  | None -> vals
  | Some l -> List.filter (fun (v : Ctx.aval) -> List.mem v.Ctx.a_attr l) vals

let subject_values ?attrs ctx = values_of ctx.Ctx.subject_vals attrs
let issuer_values ?attrs ctx = values_of ctx.Ctx.issuer_vals attrs

let all_values ctx = ctx.Ctx.all_vals

let declared_type (atv : X509.Dn.atv) =
  match atv.X509.Dn.value with Asn1.Value.Str (st, _) -> Some st | _ -> None

let gn_strings gns =
  List.filter_map
    (fun gn ->
      match gn with
      | X509.General_name.Dns_name s -> Some ("dNSName", s)
      | X509.General_name.Rfc822_name s -> Some ("rfc822Name", s)
      | X509.General_name.Uri s -> Some ("URI", s)
      | X509.General_name.Other_name _ | X509.General_name.Directory_name _
      | X509.General_name.Ip_address _ | X509.General_name.Registered_id _ ->
          None)
    gns

let names_of = function Some (Ok gns) -> gns | Some (Error _) | None -> []

let san_names ctx = names_of ctx.Ctx.san
let ian_names ctx = names_of ctx.Ctx.ian
let crldp_list ctx = names_of ctx.Ctx.crldp_names

let aia_locations ctx =
  match ctx.Ctx.aia with
  | Some (Ok descs) -> List.map snd descs
  | Some (Error _) | None -> []

let sia_locations ctx =
  match ctx.Ctx.sia with
  | Some (Ok descs) -> List.map snd descs
  | Some (Error _) | None -> []

(* [String.exists] without its per-call closure: [p] must be a
   top-level function for the scan to allocate nothing. *)
let rec exists_char_from p s i =
  i < String.length s && (p (String.unsafe_get s i) || exists_char_from p s (i + 1))

let exists_char p s = exists_char_from p s 0

let is_hi c = Char.code c > 0x7F
let has_hi payload = exists_char is_hi payload

(* The common payload is pure ASCII: answer it without building. *)
let non_ia5 payload =
  if not (has_hi payload) then []
  else begin
    let bad = ref [] in
    String.iter (fun c -> if Char.code c > 0x7F then bad := Char.code c :: !bad) payload;
    List.rev !bad
  end

let gn_has_hi = function
  | X509.General_name.Dns_name s | X509.General_name.Rfc822_name s
  | X509.General_name.Uri s ->
      has_hi s
  | X509.General_name.Other_name _ | X509.General_name.Directory_name _
  | X509.General_name.Ip_address _ | X509.General_name.Registered_id _ ->
      false

let rec any_gn_hi keep = function
  | [] -> false
  | gn :: rest -> (keep gn && gn_has_hi gn) || any_gn_hi keep rest

let rec any_location_hi = function
  | [] -> false
  | (_, gn) :: rest -> gn_has_hi gn || any_location_hi rest

let access_has_hi = function
  | Some (Ok descs) -> any_location_hi descs
  | Some (Error _) | None -> false

let a_labels domain =
  List.filter Idna.Dns.is_a_label_candidate (Idna.Dns.split_labels domain)

let rec any_pair clash = function
  | [] -> false
  | v :: rest -> clashes_with clash v rest || any_pair clash rest

and clashes_with clash v = function
  | [] -> false
  | w :: rest -> clash v w || clashes_with clash v rest
