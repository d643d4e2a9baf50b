(** SHA-256 (FIPS 180-4).

    The compression function is one portable C99 routine
    ([sha256_stubs.c], no CPU-specific instructions); buffering,
    padding and HMAC are OCaml.  The kernel runs once per run of whole
    64-byte blocks, so hashing a long message costs one foreign call.

    Used for Merkle tree hashing and page seals in the CT log
    substrate, for the mock HMAC signatures of the corpus generator,
    and for the RSA signature digests. *)

val digest : string -> string
(** [digest msg] is the 32-byte binary digest. *)

val hex : string -> string
(** [hex msg] is the lowercase hex digest. *)

val hmac : key:string -> string -> string
(** [hmac ~key msg] is HMAC-SHA-256 (RFC 2104), used by the
    deterministic mock signature scheme of the corpus generator. *)

(** {2 Incremental interface} *)

type ctx
(** Streaming digest state. *)

val init : unit -> ctx
val update : ctx -> string -> unit

val final : ctx -> string
(** [final ctx] pads, finishes, and returns the 32-byte digest.
    [ctx] must not be used afterwards. *)

(** {2 Keyed MAC with precomputed midstates} *)

type hmac_key
(** A key with its inner/outer pad compression states precomputed —
    reusing one (as every issuer signing key does) saves two
    compression calls per MAC. *)

val hmac_init : string -> hmac_key

val hmac_with : hmac_key -> string -> string
(** [hmac_with hk msg] equals [hmac ~key msg] for the [hk] derived from
    [key], byte for byte. *)
