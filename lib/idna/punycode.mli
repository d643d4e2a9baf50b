(** Punycode (RFC 3492): the Bootstring encoding that maps Unicode
    label text onto the letter-digit-hyphen alphabet used inside
    A-labels. *)

val encode : Unicode.Cp.t array -> (string, string) result
(** [encode cps] produces the Punycode form of a code-point sequence
    (without the ["xn--"] prefix).  Fails on code points that are not
    Unicode scalar values. *)

val encodes_to : Unicode.Cp.t array -> string -> (bool, string) result
(** [encodes_to cps s] is [Ok (encode cps = Ok s)] when [cps] encodes,
    and [encode]'s error otherwise — computed by comparing each output
    character in place, without building the encoding. *)

val decode : string -> (Unicode.Cp.t array, string) result
(** [decode s] inverts {!encode}.  Fails on characters outside the
    Punycode alphabet, overflow, or out-of-range deltas — the
    "unconvertible A-label" condition of the paper's T2 lints. *)

val encode_utf8 : string -> (string, string) result
(** [encode_utf8 text] encodes a UTF-8 label body. *)

val decode_utf8 : string -> (string, string) result
(** [decode_utf8 s] decodes to UTF-8 text. *)
