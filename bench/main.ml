(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md §3 for the index).

   Environment knobs: UNICERT_SCALE (corpus size, default
   Ctlog.Dataset.default_scale) and UNICERT_SEED (default 1). *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some n when n > 0 -> n | _ -> default)
  | None -> default

let banner title =
  Format.printf "@.%s@.%s@.@." title (String.make (String.length title) '=')

let () =
  let scale = env_int "UNICERT_SCALE" Ctlog.Dataset.default_scale in
  let seed = env_int "UNICERT_SEED" 1 in
  Format.printf "unicert experiment harness — corpus scale %d, seed %d@." scale seed;

  banner "RQ1 — Unicert issuance compliance (FIG2, TAB1, TAB2, FIG3, FIG4, TAB11, SEC51)";
  let pipeline = Unicert.Pipeline.run ~scale ~seed () in
  Unicert.Report.all Format.std_formatter pipeline;

  banner "RQ2 — TLS library parsing (TAB4, TAB5, Appendix E)";
  Tlsparsers.Apis.render Format.std_formatter;
  Format.printf "@.";
  Tlsparsers.Harness.render Format.std_formatter;

  banner "RQ3 — CT monitor misleading (TAB6)";
  Monitors.Audit.render Format.std_formatter;

  banner "RQ3 — Traffic obfuscation (TAB3, SEC62)";
  Middlebox.Obfuscation.render Format.std_formatter;
  Middlebox.Evasion.render Format.std_formatter;

  banner "Appendix F.1 — Browser rendering (TAB14, FIG7)";
  Unicert.Browsers.render Format.std_formatter
