(** Lowercase hexadecimal encoding, shared by digests ({!Sha256.hex})
    and the CT wire format. *)

val encode : string -> string
(** [encode s] is two lowercase hex digits per byte of [s]. *)

val decode : string -> string option
(** [decode s] inverts {!encode} (either digit case accepted); [None]
    for an odd length or a non-hex character. *)
