(** RFC 6962 Merkle hash trees: tree heads, inclusion proofs, and
    consistency proofs over an append-only leaf sequence. *)

type t
(** An append-only Merkle tree over byte-string leaves.  Hashes of
    complete, aligned power-of-two subtrees are memoised on first use
    (they never change once their leaves exist).  On a warm tree a
    tree head hashes O(log n) nodes and a proof O(log{^2} n) at most,
    rather than O(n). *)

val create : unit -> t
val append : t -> string -> int
(** [append t leaf] adds a leaf and returns its index. *)

val size : t -> int

val leaf_hash : string -> string
(** [leaf_hash data] is [SHA-256(0x00 || data)]. *)

val node_hash : string -> string -> string
(** [node_hash l r] is [SHA-256(0x01 || l || r)]. *)

val root : t -> string
(** [root t] is the Merkle tree head (the hash of the empty string for
    an empty tree). *)

val root_of_range : t -> int -> string
(** [root_of_range t n] is the tree head over the first [n] leaves. *)

(** {2 Compact ranges}

    The hashes of the maximal complete subtrees over a prefix
    [[0, size)] — one per set bit of [size].  That is enough to extend
    the prefix leaf by leaf and to compute its root, in O(log size)
    space: what a client that only checks tree heads needs to keep. *)

type compact

val compact_empty : compact
val compact_size : compact -> int

val compact_push : compact -> string -> compact
(** [compact_push c h] extends [c] by one leaf whose {!leaf_hash} is
    [h]. *)

val compact_root : compact -> string
(** [compact_root c] equals [root_of_range t (compact_size c)] for any
    tree [t] whose first leaves hash to the ones pushed. *)

val inclusion_proof : t -> int -> string list
(** [inclusion_proof t i] is the audit path for leaf [i] against the
    current tree head (RFC 6962 §2.1.1). *)

val verify_inclusion :
  leaf:string -> index:int -> size:int -> proof:string list -> root:string -> bool

val consistency_proof : t -> int -> string list
(** [consistency_proof t m] proves the first [m] leaves are a prefix of
    the current tree (RFC 6962 §2.1.2). *)

val consistency_proof_range : t -> int -> int -> string list
(** [consistency_proof_range t m n] proves size [m] is a prefix of size
    [n] ([m <= n <= size t]) — what a log answers for
    get-consistency(first=m, second=n) after the tree has grown
    past [n]. *)

val verify_consistency :
  old_size:int -> old_root:string -> new_size:int -> new_root:string ->
  proof:string list -> bool
