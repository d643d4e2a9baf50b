(** Crash-safe periodic checkpointing for long analysis runs.

    A checkpoint snapshots the run parameters, the next corpus index to
    process, and an opaque marshalled state value.  Saves are atomic
    (write to a temp file, then [rename]) so a crash mid-save leaves
    the previous checkpoint intact.  Because the corpus stream is a
    pure function of [(scale, seed)], resuming only needs to replay the
    stream and skip indices below [next_index].

    Files start with a magic string and a format-version line.  A file
    that exists but is not a current-format checkpoint raises
    {!Invalid} instead of being silently ignored — restarting from
    scratch when the operator asked to resume is a correctness bug, so
    binaries surface it as a validation error (exit 2). *)

type 'a t = {
  scale : int;
  seed : int;
  next_index : int;  (** first unprocessed corpus index *)
  state : 'a;
}

exception Invalid of string
(** The path exists but holds no usable checkpoint: bad magic, a
    different format version, or a corrupt payload.  The message names
    the file and what to do (delete it or rerun without [--resume]). *)

val shard_file : string -> int -> string
(** [shard_file path k] is the per-shard checkpoint path
    ([path.shard<k>]) a parallel run uses: each worker domain
    checkpoints its own index range independently, so one run keeps one
    cursor file per shard instead of a single global cursor. *)

val journal_file : string -> string
(** [journal_file path] is [path.raw]: the append-only journal a fetch
    cursor ([path] = [base.fetch<k>]) keeps its delivered history in.
    The cursor records the journal's committed record count and byte
    length; the journal is written before the cursor is renamed into
    place. *)

val save : string -> 'a t -> unit
(** Atomic: the file named never holds a partial write. *)

val load : string -> 'a t option
(** [None] when the file is missing; raises {!Invalid} when it exists
    but fails magic, version, or payload validation. *)

val stale_cursors :
  string -> active_shards:int option -> active_fetch:int option -> string list
(** [stale_cursors path ~active_shards ~active_fetch] lists existing
    [path.shard<k>] files with [k >= active_shards] and [path.fetch<k>]
    files (and their [path.fetch<k>.raw] journals) with
    [k >= active_fetch] — cursors left behind by an earlier
    run that used more shards (or logs) than the current one.  A [None]
    active count exempts that whole family: a generate-sourced run
    passes [active_fetch:None] because [.fetch<k>] files are another
    run mode's live resume state, not its own stale droppings (and
    symmetrically).  Sorted; empty when the directory is unreadable. *)

val remove_stale :
  string -> active_shards:int option -> active_fetch:int option -> string list
(** Delete the {!stale_cursors} and return the paths removed.  Callers
    warn at start-up and call this only after a successful completion,
    so a killed run keeps its evidence on disk. *)
