(* The seeded query mix: the five Table 6 monitor profiles with
   U-label, A-label and substring forms (a profile that rejects a form
   answers [refused], which is a correct answer), point lookups in the
   persistent indexes, and [stats]. *)

let monitor_profiles = [| "crtsh"; "sslmate"; "entrust"; "facebook"; "merklemap" |]

(* The metric buckets of read-path queries. *)
let buckets = Array.to_list monitor_profiles @ [ "ix"; "stats" ]

(* The kinds are mixed in the proportions of the query battery of
   bench/bench_serve.ml: four monitor queries, four index lookups and
   one [stats] in nine.  Keys are drawn by first drawing a committed
   row uniformly, so a key is picked as often as it occurs in the
   corpus, without depending on how keys sort. *)
let make ~seed ~n rows =
  let module P = Unicert.Pipeline in
  let rows = Array.of_list rows in
  let st = Random.State.make [| seed; 0x9e3779 |] in
  let rec draw ?(tries = 1000) f =
    let row = rows.(Random.State.int st (Array.length rows)) in
    match f row with
    | [] when tries > 0 -> draw ~tries:(tries - 1) f
    | [] -> "example.com"
    | l -> List.nth l (Random.State.int st (List.length l))
  in
  let domain () = draw P.row_domains in
  Array.init n (fun _ ->
      let r = Random.State.float st 1.0 in
      if r < 4. /. 9. then begin
        let p = monitor_profiles.(Random.State.int st (Array.length monitor_profiles)) in
        let d = domain () in
        let text =
          match Random.State.int st 3 with
          | 0 -> d
          | 1 -> Idna.to_unicode d
          | _ -> (
              (* A substring: the leftmost label. *)
              match String.split_on_char '.' d with
              | l :: _ :: _ when l <> "" && l <> "*" -> l
              | _ -> d)
        in
        Printf.sprintf "q %s %s" p text
      end
      else if r < 8. /. 9. then begin
        match Random.State.int st 4 with
        | 0 -> "ix issuer " ^ draw (fun row -> [ P.row_org row ])
        | 1 -> "ix lint " ^ draw P.row_nc
        | 2 -> "ix domain " ^ domain ()
        | _ -> "ix ulabel " ^ Idna.to_unicode (domain ())
      end
      else "stats")

(* The first [k] distinct lines: the replay-equality battery. *)
let battery qs k =
  let seen = Hashtbl.create 64 in
  Array.fold_left
    (fun acc q ->
      if List.length acc >= k || Hashtbl.mem seen q then acc
      else begin
        Hashtbl.replace seen q ();
        q :: acc
      end)
    [] qs
  |> List.rev

(* The metric bucket of a query line: its profile, "ix" or "stats". *)
let bucket_of line =
  match String.split_on_char ' ' line with
  | "q" :: p :: _ -> p
  | c :: _ -> c
  | [] -> "other"

(* Hits in a sealed reply frame; [None] for a broken frame or an [err]
   reply, [Some 0] for replies without hits (refused, stats). *)
let hits_of_frame frame =
  match Ctlog.Wire.open_ frame with
  | None -> None
  | Some (l :: _) when String.starts_with ~prefix:"err" l -> None
  | Some (l :: _) when String.starts_with ~prefix:"hits " l -> (
      match String.split_on_char ' ' l with
      | _ :: n :: _ -> int_of_string_opt n
      | _ -> None)
  | Some _ -> Some 0
