(* Line-based wire format shared by Ctlog.Server and Ctlog.Fetch.

   A body is newline-separated lines followed by a trailing integrity
   line ["end <sha256-hex of everything before it>"].  The checksum is
   what lets the fetch client distinguish a torn page (transport
   truncation / bit corruption — retryable) from well-formed data whose
   *content* is bad (a corrupt DER — quarantinable). *)

let to_hex = Ucrypto.Hex.encode
let of_hex = Ucrypto.Hex.decode

let seal lines =
  let payload = String.concat "\n" lines ^ "\n" in
  payload ^ "end " ^ Ucrypto.Sha256.hex payload ^ "\n"

(* Validate the checksum and return the payload lines; [None] for a
   torn body. *)
let open_ body =
  match String.rindex_opt body '\n' with
  | None -> None
  | Some last ->
      (* The final line is "end <hex>\n"; find its start. *)
      let body = String.sub body 0 last in
      let start =
        match String.rindex_opt body '\n' with Some i -> i + 1 | None -> 0
      in
      let trailer = String.sub body start (String.length body - start) in
      let payload = String.sub body 0 start in
      if String.length trailer >= 4 && String.sub trailer 0 4 = "end " then begin
        let sum = String.sub trailer 4 (String.length trailer - 4) in
        if String.equal sum (Ucrypto.Sha256.hex payload) then
          Some
            (String.split_on_char '\n' payload
            |> List.filter (fun l -> l <> ""))
        else None
      end
      else None

let valid body = open_ body <> None
