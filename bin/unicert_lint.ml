(* unicert-lint: run the 95-rule Unicert linter over PEM/DER certificate
   files, zlint-style.  With no files, lints a freshly generated corpus
   sample and prints the per-lint histogram. *)

open Cmdliner

let load_cert path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let bytes = really_input_string ic n in
  close_in ic;
  if String.length bytes > 10 && String.sub bytes 0 10 = "-----BEGIN" then
    X509.Certificate.of_pem bytes
  else X509.Certificate.parse bytes

let lint_file ~issued ~ignore_dates path =
  match load_cert path with
  | Error m -> Printf.printf "%s: PARSE ERROR: %s
" path (Faults.Error.to_string m)
  | Ok cert ->
      let findings =
        Lint.Registry.noncompliant ~respect_effective_dates:(not ignore_dates)
          ~issued cert
      in
      if findings = [] then Printf.printf "%s: compliant (0 findings)\n" path
      else begin
        Printf.printf "%s: %d findings\n" path (List.length findings);
        List.iter
          (fun (f : Lint.finding) ->
            let details =
              match f.Lint.status with
              | Lint.Fail d | Lint.Warn d -> d
              | Lint.Na | Lint.Pass -> []
            in
            Printf.printf "  [%s] %s\n"
              (match Lint.severity f.Lint.lint with
              | Lint.Error -> "ERROR"
              | Lint.Warning -> "WARN ")
              f.Lint.lint.Lint.name;
            List.iter (fun d -> Printf.printf "      %s\n" d) details)
          findings
      end

type tally = {
  counts : (string, int) Hashtbl.t;
  mutable nc : int;
  mutable total : int;
  mutable faulted : int;
}

let fresh_tally () = { counts = Hashtbl.create 64; nc = 0; total = 0; faulted = 0 }

let merge_tally dst src =
  dst.nc <- dst.nc + src.nc;
  dst.total <- dst.total + src.total;
  dst.faulted <- dst.faulted + src.faulted;
  Hashtbl.iter
    (fun k v ->
      Hashtbl.replace dst.counts k
        (v + Option.value ~default:0 (Hashtbl.find_opt dst.counts k)))
    src.counts

(* One certificate through the linter, behind the error boundary. *)
let lint_one ~ignore_dates t record index (e : Ctlog.Dataset.entry) =
  t.total <- t.total + 1;
  (* This path runs the linter only, so the slow-cert log's dominating
     stage is always "lint" here. *)
  let profiling = Obs.Profile.enabled () in
  let t0 = if profiling then Unix.gettimeofday () else 0. in
  match
    Lint.Registry.noncompliant ~respect_effective_dates:(not ignore_dates)
      ~issued:e.Ctlog.Dataset.issued e.Ctlog.Dataset.cert
  with
  | findings ->
      if profiling then
        Obs.Profile.note_slow ~index
          ~seconds:(Unix.gettimeofday () -. t0)
          ~stage:"lint";
      if findings <> [] then begin
        t.nc <- t.nc + 1;
        List.iter
          (fun (f : Lint.finding) ->
            Hashtbl.replace t.counts f.Lint.lint.Lint.name
              (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts f.Lint.lint.Lint.name)))
          findings
      end
  | exception exn when Faults.Isolation.enabled () ->
      record ~index ~der:e.Ctlog.Dataset.cert.X509.Certificate.der
        (Faults.Error.of_exn ~stage:"lint" exn)

let lint_corpus ~scale ~seed ~ignore_dates (fault : Fault_cli.t) =
  let policy = fault.Fault_cli.policy in
  let jobs = fault.Fault_cli.jobs in
  Lint.Registry.set_breaker_threshold policy.Faults.Policy.breaker_threshold;
  let mutator = Fault_cli.mutator ~default_seed:seed fault in
  let aborted = ref None in
  let coverage = ref [] in
  Fault_cli.warn_stale_cursors fault ~scale;
  let t =
    Fault_cli.guard @@ fun () ->
    match fault.Fault_cli.store with
    | Some dir ->
        (* Store-backed pass: the full pipeline lands (or replays) the
           corpus in the store; project its aggregates into the tally
           this binary prints.  Stored rows encode dated findings, so
           the date-ablation flag cannot apply to them. *)
        if ignore_dates then begin
          Printf.eprintf
            "error: --ignore-effective-dates is not supported with --store \
             (stored analysis rows encode effective-dated findings)\n";
          exit 2
        end;
        let source =
          match fault.Fault_cli.fetch with
          | Some cfg -> Unicert.Pipeline.Fetch cfg
          | None -> Unicert.Pipeline.Generate
        in
        let p =
          Unicert.Pipeline.run ~scale ~seed ~policy
            ?mutator:(Fault_cli.mutator ~default_seed:seed fault)
            ~drop:fault.Fault_cli.drop ~resume:fault.Fault_cli.resume ~jobs
            ~source ~store:dir ()
        in
        aborted := p.Unicert.Pipeline.faults.Unicert.Pipeline.aborted;
        coverage := p.Unicert.Pipeline.coverage;
        let t = fresh_tally () in
        t.total <- p.Unicert.Pipeline.total;
        t.nc <- p.Unicert.Pipeline.nc_total;
        t.faulted <-
          p.Unicert.Pipeline.faults.Unicert.Pipeline.fault_errors;
        Hashtbl.iter
          (fun k v -> Hashtbl.replace t.counts k v)
          p.Unicert.Pipeline.lints;
        t
    | None ->
        (* Fetch source: retrieve the corpus from simulated CT logs
           (the fetch has its own parallelism), then tally it shard by
           shard like a generated one. *)
        let items =
          Option.map
            (fun cfg ->
              let cfg =
                { cfg with
                  Ctlog.Fetch.breaker_threshold =
                    policy.Faults.Policy.breaker_threshold }
              in
              let items, covs =
                Ctlog.Fetch.corpus ~scale ~seed ?mutator
                  ~drop:fault.Fault_cli.drop
                  ?checkpoint:policy.Faults.Policy.checkpoint_file
                  ~resume:fault.Fault_cli.resume ~jobs cfg
              in
              coverage := covs;
              Array.of_list items)
            fault.Fault_cli.fetch
        in
        (* Contiguous shards, per-shard tallies merged in index order:
           the same stdout for every jobs value (on a completed run). *)
        Ctlog.Dataset.prewarm ();
        Faults.Error.prewarm ();
        Faults.Breaker.prewarm ();
        Faults.Injector.prewarm ();
        Faults.Quarantine.prewarm ();
        let budget = Faults.Policy.budget policy ~spent:0 in
        let parts =
          Par.map_shards ~jobs ~scale (fun ~shard ~lo ~hi ->
              let t = fresh_tally () in
              let quarantine =
                Option.map
                  (fun dir -> Faults.Quarantine.open_shard ~dir ~run_seed:seed ~shard)
                  policy.Faults.Policy.quarantine_dir
              in
              let record ~index ~der error =
                t.faulted <- t.faulted + 1;
                Faults.Error.observe error;
                Option.iter
                  (fun q -> Faults.Quarantine.record q ~index ~error ~der)
                  quarantine;
                Faults.Policy.charge budget error
              in
              let deliver item =
                Faults.Policy.check budget;
                match item with
                | Ctlog.Fetch.Got (index, e) -> lint_one ~ignore_dates t record index e
                | Ctlog.Fetch.Undecodable (index, der, error) -> record ~index ~der error
              in
              Fun.protect
                ~finally:(fun () -> Option.iter Faults.Quarantine.close quarantine)
                (fun () ->
                  try
                    match items with
                    | Some items ->
                        Array.iter
                          (fun item ->
                            let i = Ctlog.Fetch.item_index item in
                            if i >= lo && i < hi then deliver item)
                          items
                    | None ->
                        Ctlog.Dataset.iter_deliveries ~scale ~start:lo ~stop:hi
                          ?mutator ~drop:fault.Fault_cli.drop ~seed
                          (fun index -> function
                            | Ctlog.Dataset.Corrupt { der; error; _ } ->
                                deliver (Ctlog.Fetch.Undecodable (index, der, error))
                            | Ctlog.Dataset.Entry e ->
                                deliver (Ctlog.Fetch.Got (index, e)))
                  with Faults.Policy.Stop -> ());
              t)
        in
        (match policy.Faults.Policy.quarantine_dir with
        | Some dir ->
            ignore
              (Faults.Quarantine.merge_shards ~dir ~run_seed:seed
                 ~shards:(List.length parts))
        | None -> ());
        aborted := Faults.Policy.aborted budget;
        let t = fresh_tally () in
        List.iter (merge_tally t) parts;
        t
  in
  Printf.printf "linted %d generated Unicerts: %d noncompliant (%.2f%%)\n" t.total t.nc
    (100.0 *. float_of_int t.nc /. float_of_int t.total);
  if t.faulted > 0 then
    Printf.printf "  %d faulted certificate(s)%s\n" t.faulted
      (match policy.Faults.Policy.quarantine_dir with
      | Some dir -> Printf.sprintf " quarantined under %s" dir
      | None -> "");
  List.iter
    (fun (name, crashes) ->
      Printf.printf "  degraded lint: %s (breaker open, %d crashes)\n" name crashes)
    (Lint.Registry.degraded ());
  (match !aborted with
  | Some reason ->
      Printf.eprintf "error: run aborted: %s\n" reason;
      Fault_cli.exit_via 3
  | None -> Fault_cli.cleanup_stale_cursors fault ~scale);
  (* Descending count, ties broken by name: deterministic across runs. *)
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts []
    |> List.sort (fun (ka, va) (kb, vb) ->
           match compare vb va with 0 -> String.compare ka kb | c -> c)
  in
  List.iter (fun (k, v) -> Printf.printf "  %-55s %d\n" k v) rows;
  let findings_total = List.fold_left (fun acc (_, v) -> acc + v) 0 rows in
  Printf.printf "  %-55s %d findings across %d lints\n" "TOTAL" findings_total
    (List.length rows);
  match !coverage with
  | [] -> 0
  | covs ->
      let healthy =
        List.length (List.filter Ctlog.Fetch.coverage_complete covs)
      in
      let expected =
        List.fold_left (fun a (c : Ctlog.Fetch.coverage) -> a + c.Ctlog.Fetch.expected) 0 covs
      in
      let delivered =
        List.fold_left (fun a (c : Ctlog.Fetch.coverage) -> a + c.Ctlog.Fetch.delivered) 0 covs
      in
      let complete = healthy = List.length covs in
      Printf.printf "  coverage: %s %d/%d logs, %.1f%% entries\n"
        (if complete then "complete" else "degraded")
        healthy (List.length covs)
        (if expected = 0 then 100.0
         else 100.0 *. float_of_int delivered /. float_of_int expected);
      if complete then 0 else 4

let list_rules () =
  Lint.Rulebook.render_catalogue Format.std_formatter

let json_findings path findings =
  Printf.printf "{\"file\": \"%s\", \"findings\": [" path;
  List.iteri
    (fun i (f : Lint.finding) ->
      (match Lint.Rulebook.covering_lint f.Lint.lint.Lint.name with
      | Some rule ->
          if i > 0 then print_string ", ";
          Format.printf "%a" Lint.Rulebook.render_json rule
      | None -> ()))
    findings;
  print_string "]}\n"

let run files corpus scale seed ignore_dates issued_str list_lints json fault
    metrics progress no_progress =
  if progress then Obs.Progress.set_override (Some true)
  else if no_progress then Obs.Progress.set_override (Some false);
  Fault_cli.set_metrics metrics;
  let issued =
    match Asn1.Time.of_generalized (issued_str ^ "000000Z") with
    | Ok t -> t
    | Error _ -> Asn1.Time.make 2024 6 1
  in
  let exit_code = ref 0 in
  if list_lints then list_rules ()
  else if corpus || files = [] then
    exit_code := lint_corpus ~scale ~seed ~ignore_dates fault
  else if json then
    List.iter
      (fun path ->
        match load_cert path with
        | Error m ->
            Printf.printf "{\"file\": \"%s\", \"error\": \"%s\"}\n" path
              (Faults.Error.to_string m)
        | Ok cert ->
            json_findings path
              (Lint.Registry.noncompliant ~respect_effective_dates:(not ignore_dates)
                 ~issued cert))
      files
  else List.iter (lint_file ~issued ~ignore_dates) files;
  (* 4 = completed with degraded fetch coverage.  The funnel flushes
     metrics/trace on every path and applies the precedence law. *)
  if !exit_code <> 0 then
    Printf.eprintf "warning: degraded coverage: not every log delivered fully\n";
  Fault_cli.exit_via !exit_code

let files = Arg.(value & pos_all file [] & info [] ~docv:"CERT" ~doc:"PEM or DER certificate files")
let scale = Arg.(value & opt int 2000 & info [ "scale" ] ~doc:"Generated corpus size when no files are given")
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Corpus seed")
let ignore_dates =
  Arg.(value & flag & info [ "ignore-effective-dates" ] ~doc:"Apply every lint regardless of its effective date")
let issued =
  Arg.(value & opt string "20240601" & info [ "issued" ] ~doc:"Assumed issuance date (YYYYMMDD) for file linting")
let list_lints =
  Arg.(value & flag & info [ "list" ] ~doc:"Print the 95-rule catalogue as JSON and exit")
let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit findings as JSON")
let corpus =
  Arg.(value & flag & info [ "corpus" ] ~doc:"Lint a freshly generated corpus sample (the default when no files are given)")
let metrics =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
       ~doc:"Write collected telemetry at exit: Prometheus text, or JSON when FILE ends in .json")
let progress =
  Arg.(value & flag & info [ "progress" ] ~doc:"Force progress reporting on (default: only on a TTY, and not under OBS_QUIET)")
let no_progress =
  Arg.(value & flag & info [ "no-progress" ] ~doc:"Force progress reporting off")

let cmd =
  let doc = "lint X.509 certificates against the 95 Unicert constraint rules" in
  Cmd.v (Cmd.info "unicert-lint" ~doc)
    Term.(const run $ files $ corpus $ scale $ seed $ ignore_dates $ issued
          $ list_lints $ json $ Fault_cli.term $ metrics $ progress
          $ no_progress)

let () = exit (Cmd.eval cmd)
