(* Hot paths increment from several domains at once (the sharded
   pipeline), so updates must be atomic — a plain mutable cell silently
   loses increments under contention.  The value is split in two cells:
   whole increments ([inc]) are one [fetch_and_add] on an int, which
   neither loops nor boxes a float, and fractional amounts ([add]) go
   through a CAS loop on a float.  Counts stay exact: the int half is
   exact outright, and float adds of small integers are exact up to
   2^53. *)
type t = { name : string; help : string; count : int Atomic.t; frac : float Atomic.t }

let make ?(help = "") name =
  { name; help; count = Atomic.make 0; frac = Atomic.make 0.0 }

let rec atomic_add cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. x)) then atomic_add cell x

let inc t = ignore (Atomic.fetch_and_add t.count 1)

let add t x =
  if x < 0.0 then invalid_arg "Obs.Counter.add: negative increment";
  atomic_add t.frac x

let value t = float_of_int (Atomic.get t.count) +. Atomic.get t.frac
let name t = t.name
let help t = t.help

let reset t =
  Atomic.set t.count 0;
  Atomic.set t.frac 0.0

let make_child = make

module Labeled = struct
  type counter = t

  (* The children table is read far more than written; a single mutex
     per family is enough because hot paths cache the child handle and
     only pay the lock on first use of a label. *)
  type t = {
    name : string;
    help : string;
    label : string;
    lock : Mutex.t;
    children : (string, counter) Hashtbl.t;
  }

  let make ?(help = "") ~label name =
    { name; help; label; lock = Mutex.create (); children = Hashtbl.create 16 }

  let get t v =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.children v with
        | Some c -> c
        | None ->
            let c = make_child ~help:t.help t.name in
            Hashtbl.replace t.children v c;
            c)

  let children t =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun k c acc -> (k, c) :: acc) t.children [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let name t = t.name
  let help t = t.help
  let label t = t.label
end
