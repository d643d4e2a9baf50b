type t = {
  max_errors : int option;
  fail_fast : bool;
  quarantine_dir : string option;
  timeout_seconds : float option;
  breaker_threshold : int;
  checkpoint_file : string option;
  checkpoint_every : int;
}

let default =
  {
    max_errors = None;
    fail_fast = false;
    quarantine_dir = None;
    timeout_seconds = None;
    breaker_threshold = Breaker.default_threshold;
    checkpoint_file = None;
    checkpoint_every = 5_000;
  }

exception Stop

type budget = {
  policy : t;
  errors : int Atomic.t;
  stopped : bool Atomic.t;
  lock : Mutex.t;
  mutable reason : string option;
}

let budget policy ~spent =
  { policy; errors = Atomic.make spent; stopped = Atomic.make false;
    lock = Mutex.create (); reason = None }

(* The first shard to exhaust the budget publishes its reason; every
   other shard winds down at its next [check]. *)
let stop b reason =
  Mutex.protect b.lock (fun () -> if b.reason = None then b.reason <- Some reason);
  Atomic.set b.stopped true;
  raise Stop

let charge b error =
  let seen = 1 + Atomic.fetch_and_add b.errors 1 in
  if b.policy.fail_fast then
    stop b (Printf.sprintf "fail-fast: %s" (Error.to_string error));
  match b.policy.max_errors with
  | Some m when seen >= m ->
      stop b (Printf.sprintf "max-errors: %d errors reached the limit" m)
  | _ -> ()

let check b = if Atomic.get b.stopped then raise Stop
let aborted b = Mutex.protect b.lock (fun () -> b.reason)
