(** Global kill-switch for the error boundaries.

    Isolation is on by default: per-lint and per-certificate boundaries
    catch crashes and convert them to {!Error.t} events.  The
    fault-boundary allocation gate of [@speed-smoke] turns it off to
    measure the raw hot path without try/with guards; production code
    should never disable it. *)

val enabled : unit -> bool
val set : bool -> unit
