(** Run-level fault policy: how much failure a run tolerates and where
    the wreckage goes.  Assembled from CLI flags by the binaries and
    threaded into [Core.Pipeline]. *)

type t = {
  max_errors : int option;
      (** abort after this many per-certificate errors; [None] = unbounded *)
  fail_fast : bool;  (** abort on the first per-certificate error *)
  quarantine_dir : string option;
      (** write offending certs + errors to a sidecar here *)
  timeout_seconds : float option;
      (** per-certificate watchdog; [None] = no watchdog *)
  breaker_threshold : int;
      (** consecutive crashes before a lint/model breaker opens *)
  checkpoint_file : string option;
  checkpoint_every : int;  (** certificates between checkpoint saves *)
}

val default : t
(** Unbounded errors, no fail-fast, no quarantine, no watchdog,
    {!Breaker.default_threshold}, no checkpointing. *)

(** {2 The run-wide error budget}

    The one implementation of [max_errors] / [fail_fast]: every shard
    of a run charges the same budget, so a limit means the same thing
    at every [--jobs].  Domain-safe. *)

type budget

exception Stop
(** Raised by {!charge} once the budget is spent and by {!check} after
    any shard spent it: unwind the current shard. *)

val budget : t -> spent:int -> budget
(** A budget for one run, already charged with [spent] errors — those
    carried by resumed checkpoint cursors. *)

val charge : budget -> Error.t -> unit
(** Count one per-certificate error.  Under [fail_fast], or when the
    run's count reaches [max_errors], record the abort reason (first
    one wins) and raise {!Stop}. *)

val check : budget -> unit
(** Raise {!Stop} when the run has been stopped. *)

val aborted : budget -> string option
(** The abort reason, [None] while the budget holds. *)
