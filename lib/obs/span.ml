let histogram_name = "unicert_span_seconds"

let family registry =
  Registry.labeled_histogram ?registry ~label:"span"
    ~help:"Wall-clock time per instrumented span" histogram_name

(* A resolved histogram child, cached per (registry, name): resolving
   it takes two mutex-guarded table probes (the family in the registry,
   the child in the family), which the pipeline would otherwise pay on
   every span of every certificate.  Keyed by the registry's physical
   identity, so a fresh registry gets fresh handles and never inherits
   another registry's children. *)
type resolved = { r_registry : Registry.t; r_name : string; r_hist : Histogram.t }

(* Domain-local: the nesting stack (a global ref would interleave the
   stacks of concurrent worker domains, corrupting [current] and the
   pop at span end) and the resolved-child cache, so neither takes a
   lock.  Durations still land in the shared (atomic) histogram family,
   so per-span totals aggregate across domains. *)
type domain_state = { mutable stack : string list; mutable resolved : resolved list }

let state_key : domain_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { stack = []; resolved = [] })

let resolve st registry name =
  let reg = match registry with Some r -> r | None -> Registry.default in
  let rec find = function
    | r :: rest ->
        if r.r_registry == reg && (r.r_name == name || String.equal r.r_name name)
        then r.r_hist
        else find rest
    | [] ->
        let h = Histogram.Labeled.get (family (Some reg)) name in
        st.resolved <- { r_registry = reg; r_name = name; r_hist = h } :: st.resolved;
        h
  in
  find st.resolved

let finish ?registry st hist name gc0 traced t0 =
  let dt = Unix.gettimeofday () -. t0 in
  (match st.stack with _ :: rest -> st.stack <- rest | [] -> ());
  Histogram.observe hist dt;
  (match gc0 with
  | Some before -> Profile.record_gc ?registry name before
  | None -> ());
  if traced then Trace.emit_end ~cat:"stage" name

let with_ ?registry name f =
  let st = Domain.DLS.get state_key in
  let hist = resolve st registry name in
  st.stack <- name :: st.stack;
  (* Tracing and profiling ride along when enabled: a span becomes a
     Begin/End pair on the emitting domain's trace track, and the GC
     work inside it is attributed to its name.  Both checks are one
     atomic load when the features are off. *)
  let traced = Trace.enabled () in
  if traced then Trace.emit_begin ~cat:"stage" name;
  let gc0 = if Profile.enabled () then Some (Profile.gc_snapshot ()) else None in
  let t0 = Unix.gettimeofday () in
  match f () with
  | v ->
      finish ?registry st hist name gc0 traced t0;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ?registry st hist name gc0 traced t0;
      Printexc.raise_with_backtrace e bt

let current () = (Domain.DLS.get state_key).stack

let child registry name = Histogram.Labeled.get (family registry) name
let sum ?registry name = Histogram.sum (child registry name)
let count ?registry name = Histogram.count (child registry name)
