(* Shared plumbing: clock, statistics, scratch directories, logging. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --- statistics ------------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks on a sorted array. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else if n = 1 then s.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let i = min (int_of_float pos) (n - 2) in
    let frac = pos -. float_of_int i in
    s.(i) +. (frac *. (s.(i + 1) -. s.(i)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5
let p99 a = quantile a 0.99
let median_l l = median (Array.of_list l)
let sum a = Array.fold_left ( +. ) 0. a

let mean a =
  if Array.length a = 0 then 0. else sum a /. float_of_int (Array.length a)

(* A growable float buffer: per-call samples without list churn. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* --- scratch directories inside the checkout ------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Every file a run writes lives under [work_root], relative to the
   directory the benchmark is started from (the checkout root). *)
let work_root = ".perfbench_work"

let fresh_dir name =
  let dir =
    Filename.concat work_root (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  mkdir_p dir;
  dir

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let dir_bytes ?(filter = fun _ -> true) dir =
  Array.fold_left
    (fun a f -> if filter f then a + file_size (Filename.concat dir f) else a)
    0 (Sys.readdir dir)

(* --- memory ---------------------------------------------------------- *)

(* The peak major-heap size of one phase.  [heap_start] runs a full
   major collection, which frees the pools that garbage from earlier
   phases (set-up, output checks) left behind.  The heap size is then
   sampled at the end of every major cycle and at every [heap_sample]
   (the end of each pass, sample or campaign) until [heap_stop].  The
   process-wide [top_heap_words] would also count the earlier
   phases. *)
type heap_watch = { peak : int ref; alarm : Gc.alarm }

let heap_words () = (Gc.quick_stat ()).Gc.heap_words
let heap_sample w = w.peak := max !(w.peak) (heap_words ())

let heap_start () =
  Gc.full_major ();
  let peak = ref (heap_words ()) in
  { peak; alarm = Gc.create_alarm (fun () -> peak := max !peak (heap_words ())) }

(* Megabytes. *)
let heap_stop w =
  Gc.delete_alarm w.alarm;
  heap_sample w;
  float_of_int (!(w.peak) * (Sys.word_size / 8)) /. 1e6

(* Run [f] [n] times; return the last result and every duration.
   Set-up is repeated so that its time is a median: the workloads run
   some repetitions before the measured phase and some after it, so
   that the median does not rest on one moment of the host.  Each
   repetition starts from a collected heap, so that the garbage of the
   one before is not collected on its clock. *)
let repeat_setup n f =
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    Gc.full_major ();
    let v, dt = time f in
    times := dt :: !times;
    last := Some v
  done;
  (Option.get !last, !times)

let sha_hex s = Ucrypto.Sha256.hex s
