(** Shared building blocks for the concrete lints. *)

val smtputf8_oid : Asn1.Oid.t
(** id-on-smtpUTF8Mailbox (1.3.6.1.5.5.7.8.9), interned once. *)

(** {1 Effective dates} *)

(* rfc5280 2008-05, idna2008 2010-08, cab_br 2012-07, community 2015-01,
   rfc8399 2018-05, rfc9598 2024-06, rfc9549 2024-07 *)

val rfc5280_date : Asn1.Time.t
val idna2008_date : Asn1.Time.t
val cab_br_date : Asn1.Time.t
val community_date : Asn1.Time.t
val rfc8399_date : Asn1.Time.t
val rfc9598_date : Asn1.Time.t
val rfc9549_date : Asn1.Time.t

(** {1 Status helpers} *)

val emit : Types.level -> string list -> Types.status
(** [emit level details] is [Pass] on no details, otherwise [Fail] for
    MUST-level lints and [Warn] for SHOULD-level ones. *)

val describe_cp : Unicode.Cp.t -> string

(** {1 ATV iteration} *)

val subject_values : ?attrs:X509.Attr.t list -> Ctx.t -> Ctx.aval list
(** Precomputed fact records for subject string ATVs, optionally
    restricted to [attrs]. *)

val issuer_values : ?attrs:X509.Attr.t list -> Ctx.t -> Ctx.aval list

val all_values : Ctx.t -> Ctx.aval list
(** Subject then issuer fact records (the precomputed concatenation —
    no per-lint list building). *)

val declared_type : X509.Dn.atv -> Asn1.Str_type.t option

(** {1 GeneralName payload extraction} *)

val gn_strings : Ctx.general_names -> (string * string) list
(** [(kind, payload)] for the IA5-carried choices (dNSName, rfc822Name,
    URI). *)

val san_names : Ctx.t -> Ctx.general_names
val ian_names : Ctx.t -> Ctx.general_names
val crldp_list : Ctx.t -> Ctx.general_names
val aia_locations : Ctx.t -> X509.General_name.t list
val sia_locations : Ctx.t -> X509.General_name.t list

val non_ia5 : string -> int list
(** Byte values above 0x7F present in the payload ([[]], built from
    nothing, for a pure-ASCII payload). *)

val exists_char : (char -> bool) -> string -> bool
(** [String.exists] that allocates nothing when [p] is a closed
    function. *)

(** {1 Pass-path scans}

    Allocation-free tests that a lint's failure path has anything to
    report: a lint runs them first and builds its detail strings only
    when one says yes. *)

val any_gn_hi : (X509.General_name.t -> bool) -> Ctx.general_names -> bool
(** [any_gn_hi keep gns]: some name satisfying [keep] carries an
    IA5 payload (dNSName, rfc822Name, URI) with a byte above 0x7F. *)

val any_pair : ('a -> 'a -> bool) -> 'a list -> bool
(** [any_pair clash l]: two elements [a] before [b] of [l] with
    [clash a b]. *)

val access_has_hi :
  ((Asn1.Oid.t * X509.General_name.t) list, string) result option -> bool
(** The same test over the accessLocations of a parsed AIA or SIA
    extension ([Ctx.aia], [Ctx.sia]). *)

val a_labels : string -> string list
(** The xn-- labels of a domain string. *)
