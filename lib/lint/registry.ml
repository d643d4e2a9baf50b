let all =
  Lints_character.lints @ Lints_normalization.lints @ Lints_format.lints
  @ Lints_encoding.lints @ Lints_structure.lints

(* Duplicate lint names would silently skew every aggregate. *)
let () =
  let names = List.map (fun (l : Types.t) -> l.Types.name) all in
  let unique = List.sort_uniq String.compare names in
  if List.length names <> List.length unique then
    invalid_arg "Lint registry contains duplicate names"

(* O(1) lookup tables, built once at module init (read-only afterwards,
   so safe to share across domains).  [find] runs once per stored lint
   name when replaying analysis rows — linear scans over 95 lints were
   measurable at store scale. *)
let by_name_tbl =
  let tbl = Hashtbl.create 256 in
  List.iter (fun (l : Types.t) -> Hashtbl.replace tbl l.Types.name l) all;
  tbl

let find name = Hashtbl.find_opt by_name_tbl name

let by_type_tbl =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (l : Types.t) ->
      Hashtbl.replace tbl l.Types.nc_type
        (l :: Option.value ~default:[] (Hashtbl.find_opt tbl l.Types.nc_type)))
    all;
  List.iter
    (fun ty -> Hashtbl.replace tbl ty (List.rev (Hashtbl.find tbl ty)))
    (List.sort_uniq compare
       (List.map (fun (l : Types.t) -> l.Types.nc_type) all));
  tbl

let by_type t = Option.value ~default:[] (Hashtbl.find_opt by_type_tbl t)

let counts_by_type t =
  let lints = by_type t in
  (List.length lints, List.length (List.filter (fun (l : Types.t) -> l.Types.is_new) lints))

(* --- telemetry ------------------------------------------------------ *)

(* One instrument record per lint, resolved once and walked by the
   runner as an array: the hot loop (95 lints x every corpus
   certificate) pays one integer [fetch_and_add] per executed check and
   nothing else — no name-to-counter lookup, no closure, no clock.  The
   finding records of the two dataless outcomes are preallocated here,
   so a lint that passes allocates nothing. *)
type instr = {
  lint : Types.t;
  invocations : Obs.Counter.t;  (** checks actually run (non-NA) *)
  fail : Obs.Counter.t;
  warn : Obs.Counter.t;
  na : Obs.Counter.t;
  seconds : Obs.Counter.t;      (** sampled cumulative check time *)
  breaker : Faults.Breaker.t;
  passed : Types.finding;       (** [{ lint; status = Pass }] *)
  skipped : Types.finding;      (** [{ lint; status = Na }] *)
}

(* Per-lint wall clock is sampled by certificate: one certificate in
   [time_sample] is timed end to end, with one clock read per lint edge
   (each read closes one lint and opens the next), and the per-lint
   deltas are scaled back up. *)
let time_sample = 8

let instruments =
  lazy
    (let mk family (l : Types.t) =
       Obs.Counter.Labeled.get family l.Types.name
     in
     let invocations =
       Obs.Registry.labeled_counter ~label:"lint"
         ~help:"Lint checks executed (excluding effective-date NA skips)"
         "unicert_lint_invocations_total"
     and fail =
       Obs.Registry.labeled_counter ~label:"lint"
         ~help:"Fail findings per lint" "unicert_lint_fail_total"
     and warn =
       Obs.Registry.labeled_counter ~label:"lint"
         ~help:"Warn findings per lint" "unicert_lint_warn_total"
     and na =
       Obs.Registry.labeled_counter ~label:"lint"
         ~help:"Effective-date NA skips per lint" "unicert_lint_na_total"
     and seconds =
       Obs.Registry.labeled_counter ~label:"lint"
         ~help:
           (Printf.sprintf
              "Cumulative check wall-clock per lint (sampled 1/%d, scaled)"
              time_sample)
         "unicert_lint_seconds_total"
     in
     Array.of_list
       (List.map
          (fun l ->
            { lint = l; invocations = mk invocations l; fail = mk fail l;
              warn = mk warn l; na = mk na l; seconds = mk seconds l;
              breaker = Faults.Breaker.create l.Types.name;
              passed = { Types.lint = l; status = Types.Pass };
              skipped = { Types.lint = l; status = Types.Na } })
          all))

(* Set by the first lint crash, cleared by [reset_faults].  Until a
   lint has crashed every breaker is closed with no consecutive
   failures, so the runner skips the breaker reads and writes — two
   cold cache lines per lint — behind this one hot flag. *)
let crashed = Atomic.make false

(* The check body, with the fault-injection hook; [inject] is
   [Injector.active], read once per certificate. *)
let invoke ~inject (l : Types.t) ctx =
  if inject then Faults.Injector.tick l.Types.name;
  l.Types.check ctx

let success ins = if Atomic.get crashed then Faults.Breaker.success ins.breaker

let checked ins ~inject ~traced ctx =
  let l = ins.lint in
  Obs.Counter.inc ins.invocations;
  match
    if traced then
      Obs.Trace.span ~cat:"lint" l.Types.name (fun () -> invoke ~inject l ctx)
    else invoke ~inject l ctx
  with
  | Types.Pass ->
      success ins;
      ins.passed
  | Types.Na ->
      success ins;
      ins.skipped
  | (Types.Fail _ | Types.Warn _) as status ->
      success ins;
      Obs.Counter.inc
        (match status with Types.Fail _ -> ins.fail | _ -> ins.warn);
      { Types.lint = l; status }
  (* The error boundary: one crashing lint degrades to NA for this
     certificate instead of killing the run.  Disabled only by the
     benchmark kill-switch. *)
  | exception e when Faults.Isolation.enabled () ->
      Atomic.set crashed true;
      Faults.Breaker.failure ins.breaker;
      Faults.Error.observe
        (Faults.Error.Lint_crash
           { lint = l.Types.name;
             exn_name = Faults.Error.exn_name e;
             detail = Printexc.to_string e });
      ins.skipped

type lint_obs = {
  lint_name : string;
  invoked : float;
  failed : float;
  warned : float;
  skipped_na : float;
  est_seconds : float;
}

let obs_snapshot () =
  Array.to_list
    (Array.map
       (fun ins ->
         { lint_name = ins.lint.Types.name;
           invoked = Obs.Counter.value ins.invocations;
           failed = Obs.Counter.value ins.fail;
           warned = Obs.Counter.value ins.warn;
           skipped_na = Obs.Counter.value ins.na;
           est_seconds = Obs.Counter.value ins.seconds })
       (Lazy.force instruments))

(* --- the runner ----------------------------------------------------- *)

(* Per-domain runner state: the certificate tick that drives both the
   trace sampling and the time sampling, and the last clock edge of a
   timed certificate (a float array, so storing it does not box).
   Domain-local, so worker domains never share a written cell. *)
type domain_state = { mutable tick : int; edge : Float.Array.t }

let domain_state =
  Domain.DLS.new_key (fun () -> { tick = 0; edge = Float.Array.make 1 0. })

let run_checks ~respect_effective_dates ~include_new ~only ~issued ctx =
  let st = Domain.DLS.get domain_state in
  st.tick <- st.tick + 1;
  (* Per-lint trace spans are sampled (--trace-sample) by certificate:
     95 lints per certificate would otherwise dominate the ring. *)
  let traced = Obs.Trace.sample_hit st.tick in
  let timed = st.tick mod time_sample = 0 in
  if timed then Float.Array.set st.edge 0 (Unix.gettimeofday ());
  let inject = Faults.Injector.active () in
  let inss = Lazy.force instruments in
  let n = Array.length inss in
  (* Non-tail recursion builds the result list in registry order
     without a reversal, while the checks still run first to last. *)
  let rec go i =
    if i = n then []
    else begin
      let ins = Array.unsafe_get inss i in
      let l = ins.lint in
      if ((not include_new) && l.Types.is_new)
         || match only with None -> false | Some p -> not (p l)
      then go (i + 1)
      else if
        respect_effective_dates && Asn1.Time.(issued < l.Types.effective_date)
      then begin
        Obs.Counter.inc ins.na;
        let f = ins.skipped in
        f :: go (i + 1)
      end
      else if Atomic.get crashed && Faults.Breaker.tripped ins.breaker then
        let f = ins.skipped in
        f :: go (i + 1)
      else begin
        let f = checked ins ~inject ~traced ctx in
        if timed then begin
          let t = Unix.gettimeofday () in
          Obs.Counter.add ins.seconds
            ((t -. Float.Array.get st.edge 0) *. float_of_int time_sample);
          Float.Array.set st.edge 0 t
        end;
        f :: go (i + 1)
      end
    end
  in
  go 0

let run_ctx ?(respect_effective_dates = true) ?(include_new = true) ?only
    ~issued ctx =
  Obs.Span.with_ "lint" @@ fun () ->
  run_checks ~respect_effective_dates ~include_new ~only ~issued ctx

let run ?(respect_effective_dates = true) ?(include_new = true) ?only ~issued
    cert =
  Obs.Span.with_ "lint" @@ fun () ->
  run_checks ~respect_effective_dates ~include_new ~only ~issued
    (Ctx.of_cert cert)

let noncompliant ?respect_effective_dates ?include_new ~issued cert =
  run ?respect_effective_dates ?include_new ~issued cert
  |> List.filter Types.is_noncompliant

(* --- fault accounting ----------------------------------------------- *)

let breakers () =
  Array.to_list (Array.map (fun ins -> ins.breaker) (Lazy.force instruments))

let fault_snapshot () =
  List.filter_map
    (fun b ->
      if Faults.Breaker.crashes b > 0 then
        Some (Faults.Breaker.name b, Faults.Breaker.crashes b, Faults.Breaker.tripped b)
      else None)
    (breakers ())

let degraded () =
  List.filter_map
    (fun b ->
      if Faults.Breaker.tripped b then
        Some (Faults.Breaker.name b, Faults.Breaker.crashes b)
      else None)
    (breakers ())

let set_breaker_threshold n =
  List.iter (fun b -> Faults.Breaker.set_threshold b n) (breakers ())

let reset_faults () =
  List.iter Faults.Breaker.reset (breakers ());
  Atomic.set crashed false
