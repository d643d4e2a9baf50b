(* Benchmark-side spans: one record per timed call into a layer.

   Each span carries its name (the layer and call, e.g. "x509.parse"),
   monotonic start and end, the span that enclosed it on the same
   domain, a request id (certificate index, entry index, query sequence
   number or execution number) and the minor words the call allocated.
   Spans stay in per-domain memory buffers until the run ends; when
   tracing is off [with_] is a plain call. *)

type span = {
  name : string;
  rid : int;
  id : int;
  parent : int;  (** [-1] for a root span *)
  t0 : float;
  t1 : float;
  words : float;  (** minor words allocated inside the call *)
}

type buf = {
  dom : int;
  mutable spans : span list;
  mutable n : int;
  mutable stack : int list;
}

let on = ref false
let mu = Mutex.create ()
let bufs : buf list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        { dom = (Domain.self () :> int); spans = []; n = 0; stack = [] }
      in
      Mutex.lock mu;
      bufs := b :: !bufs;
      Mutex.unlock mu;
      b)

(* Words a span's own bookkeeping adds to its delta (the boxed clock
   and counter readings), measured once and subtracted so that the
   reported count is the call's own allocation. *)
let calib = ref 0.

let close b ~name ~rid ~id ~parent ~t0 ~w0 =
  let w1 = Gc.minor_words () in
  let t1 = Util.now () in
  b.stack <- (match b.stack with _ :: r -> r | [] -> []);
  b.spans <-
    { name; rid; id; parent; t0; t1; words = w1 -. w0 -. !calib } :: b.spans

let with_ name ~rid f =
  if not !on then f ()
  else begin
    let b = Domain.DLS.get key in
    let id = (b.dom lsl 40) lor b.n in
    b.n <- b.n + 1;
    let parent = match b.stack with p :: _ -> p | [] -> -1 in
    b.stack <- id :: b.stack;
    let t0 = Util.now () in
    let w0 = Gc.minor_words () in
    match f () with
    | v ->
        close b ~name ~rid ~id ~parent ~t0 ~w0;
        v
    | exception e ->
        close b ~name ~rid ~id ~parent ~t0 ~w0;
        raise e
  end

let reset () =
  Mutex.lock mu;
  List.iter
    (fun b ->
      b.spans <- [];
      b.stack <- [])
    !bufs;
  Mutex.unlock mu

let enable () =
  on := true;
  reset ();
  (* Calibrate the bookkeeping allocation on an empty call. *)
  calib := 0.;
  let w = ref infinity in
  for _ = 1 to 8 do
    with_ "calib" ~rid:0 (fun () -> ());
    match (Domain.DLS.get key).spans with
    | s :: _ -> w := Float.min !w s.words
    | [] -> ()
  done;
  calib := !w;
  reset ()

let disable () = on := false

let all () =
  Mutex.lock mu;
  let l = List.concat_map (fun b -> b.spans) !bufs in
  Mutex.unlock mu;
  l

let dur s = s.t1 -. s.t0

(* Self time: a span's duration minus the part its direct children
   cover (children run on the parent's domain, strictly inside it). *)
let self_times spans =
  let child = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

type summary = {
  calls : int;
  durs : float array;  (** seconds, per call *)
  words : float array;  (** per call *)
  selfs : float array;  (** seconds, per call *)
  self_total : float;  (** seconds *)
}

(* Per-name summaries of a span list. *)
let summarize spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let d, w, sl =
        Option.value ~default:([], [], []) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (dur s :: d, s.words :: w, self :: sl))
    (self_times spans);
  fun name ->
    match Hashtbl.find_opt tbl name with
    | None ->
        { calls = 0; durs = [||]; words = [||]; selfs = [||]; self_total = 0. }
    | Some (d, w, sl) ->
        let selfs = Array.of_list sl in
        {
          calls = List.length d;
          durs = Array.of_list d;
          words = Array.of_list w;
          selfs;
          self_total = Util.sum selfs;
        }

(* Write the spans as JSONL, ordered by start time. *)
let write file spans =
  let spans = List.sort (fun a b -> compare a.t0 b.t0) spans in
  let oc = open_out file in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"rid\":%d,\"id\":%d,\"parent\":%d,\"start\":%.9f,\"end\":%.9f,\"words\":%.0f}\n"
        s.name s.rid s.id s.parent s.t0 s.t1 s.words)
    spans;
  close_out oc

(* Duration of the latest-starting span called [name]; 0 when none. *)
let last_dur spans name =
  List.fold_left
    (fun (t0, d) s -> if s.name = name && s.t0 > t0 then (s.t0, dur s) else (t0, d))
    (neg_infinity, 0.) spans
  |> snd
