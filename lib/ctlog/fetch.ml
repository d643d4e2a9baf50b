(* Resumable paged CT-log fetch over the simulated transport.

   One session per log: trust-on-first-use STH, then every refreshed STH
   is verified against the previously trusted one — equal sizes must
   have equal roots, growth must come with a consistency proof that
   passes [Merkle.verify_consistency].  Entries are buffered unverified
   ([pend]) and only delivered once the window closes and the running
   leaf tree reproduces the verified STH root; a split view quarantines
   the whole unverified range as [Faults.Error.Integrity] and abandons
   the log.  Request failures skip the page (a coverage gap) and feed
   the per-log circuit breaker: past a trip budget the log is abandoned
   and the run reports degraded coverage instead of aborting.

   Everything is deterministic: per-log virtual clock, pure fault
   sampling, and a cursor checkpoint ([FILE.fetch<k>]) carrying the
   session state, with the delivered history in an append-only journal
   beside it ([FILE.fetch<k>.raw]), so a resumed run produces
   byte-identical results to an uninterrupted one. *)

type cfg = {
  logs : int;
  net_seed : int option;  (* fault-plan seed; default derives from corpus seed *)
  fault_rate : float;
  fault_kinds : Net.Fault.kind list;
  flap_rate : float;
  down : string list;             (* permanently dead logs *)
  page_cap : int;                 (* server page size, and the skip unit *)
  policy : Net.Policy.t;
  rate_per_sec : float;           (* token bucket rate *)
  burst : float;
  sth_every : int;                (* pages between mid-window STH tripwires *)
  breaker_threshold : int;
  breaker_cooldown : float;       (* virtual seconds before a half-open probe *)
  max_trips : int;                (* breaker trips before the log is abandoned *)
  equivocate : (string * int * int) list;
      (* (log name, at_request, leaf to flip) — test/chaos hook *)
}

let default_cfg =
  {
    logs = 16;
    net_seed = None;
    fault_rate = 0.0;
    fault_kinds = Net.Fault.all_kinds;
    flap_rate = 0.0;
    down = [];
    page_cap = Server.default_page_cap;
    policy = Net.Policy.default;
    rate_per_sec = 200.0;
    burst = 20.0;
    sth_every = 8;
    breaker_threshold = Faults.Breaker.default_threshold;
    breaker_cooldown = 30.0;
    max_trips = 3;
    equivocate = [];
  }

let log_name k = Printf.sprintf "log-%02d" k

type item =
  | Got of int * Dataset.entry                   (* corpus index, entry *)
  | Undecodable of int * string * Faults.Error.t (* corpus index, DER, error *)

let item_index = function Got (i, _) -> i | Undecodable (i, _, _) -> i

type coverage = {
  log : string;
  expected : int;      (* entries this log held *)
  delivered : int;     (* fetched, verified and decoded *)
  quarantined : int;   (* fetched but undecodable or integrity-flagged *)
  spans : (int * int) list;  (* inclusive corpus-index ranges covered *)
  page_gaps : int;     (* pages skipped after request failure *)
  abandoned : string option;
  split_view : bool;
  requests : int;
  retries : int;
}

let coverage_complete c =
  c.abandoned = None && not c.split_view && c.page_gaps = 0
  && c.delivered + c.quarantined >= c.expected

(* --- the client's leaf tree --------------------------------------------

   The client needs its running leaf tree for one thing: at each window
   close, the root over the first [n] leaves, where [n] is never below
   the size verified at the previous close.  So it keeps a compact range
   over the verified prefix [0, base) and the hashes of the leaves
   fetched past it: O(log n + window), not O(n). *)

type tree = {
  t_base : Merkle.compact;
  t_leaves : string list;  (* leaf hashes of [base, size), newest first *)
  t_size : int;
}

let empty_tree = { t_base = Merkle.compact_empty; t_leaves = []; t_size = 0 }

let tree_append t leaf =
  { t with t_leaves = Merkle.leaf_hash leaf :: t.t_leaves; t_size = t.t_size + 1 }

(* The root over the first [n] leaves ([base <= n <= size]) and the tree
   with its base advanced to [n]. *)
let tree_close t n =
  let rec take base leaves =
    if Merkle.compact_size base = n then (base, leaves)
    else
      match leaves with
      | h :: rest -> take (Merkle.compact_push base h) rest
      | [] -> invalid_arg "Fetch.tree_close"
  in
  let base, rest = take t.t_base (List.rev t.t_leaves) in
  (Merkle.compact_root base, { t with t_base = base; t_leaves = List.rev rest })

(* --- cursor: the session state, checkpointable -------------------------

   The cursor holds no delivered DER: every delivered or quarantined
   entry is appended once to the journal, and the cursor keeps only the
   journal's committed record count and byte length.  With the compact
   leaf tree, its size follows the pending window, not the history. *)

type cursor = {
  c_log : string;
  c_next : int;                        (* next tree index to fetch *)
  c_verified : (int * string) option;  (* trusted STH: size, root *)
  c_tree : tree;                       (* running leaf tree *)
  c_tree_ok : bool;                    (* false once a page gap broke it *)
  c_refresh : int;                     (* STH refreshes so far (fault keying) *)
  c_pend : (int * bool * string) list; (* unflushed: tree idx, precert, DER; newest first *)
  c_delivered : int;                   (* delivered records in the journal *)
  c_quarantined : int;                 (* quarantined records in the journal *)
  c_journal_bytes : int;               (* committed journal length *)
  c_spans : (int * int) list;          (* covered corpus-index spans; newest first *)
  c_last_covered : int;                (* tree index of the newest covered entry, or -1 *)
  c_gaps : int;
  c_requests : int;
  c_retries : int;
}

let fresh_cursor name =
  {
    c_log = name;
    c_next = 0;
    c_verified = None;
    c_tree = empty_tree;
    c_tree_ok = true;
    c_refresh = 0;
    c_pend = [];
    c_delivered = 0;
    c_quarantined = 0;
    c_journal_bytes = 0;
    c_spans = [];
    c_last_covered = -1;
    c_gaps = 0;
    c_requests = 0;
    c_retries = 0;
  }

let cursor_file base k = base ^ ".fetch" ^ string_of_int k

(* The cursor at [file] when it belongs to this log and run, else a
   fresh one.  A file that is not a current-format cursor raises
   [Faults.Checkpoint.Invalid]. *)
let load_cursor file ~scale ~seed ~name =
  match (Faults.Checkpoint.load file : cursor Faults.Checkpoint.t option) with
  | Some c
    when c.Faults.Checkpoint.scale = scale
         && c.Faults.Checkpoint.seed = seed
         && c.Faults.Checkpoint.state.c_log = name ->
      c.Faults.Checkpoint.state
  | _ -> fresh_cursor name

(* --- journal: the delivered history, append-only -----------------------

   [FILE.fetch<k>.raw] is a sequence of records, one per delivered or
   quarantined entry, in delivery order (ascending corpus index):

     tag        1 byte    'D' delivered | 'Q' quarantined
     index      8 bytes   corpus index, big-endian
     der        4-byte big-endian length, then the DER
     detail     4-byte big-endian length, then the integrity detail
                (empty for 'D')

   A save writes the new records first and then renames the cursor into
   place, so the cursor's record count and byte length always describe
   a prefix of the file.  Bytes past that prefix are a torn tail from a
   save that died between the two steps: reads ignore them and the next
   append truncates them away. *)

let add_record buf ~tag ~index ~der ~detail =
  Buffer.add_char buf tag;
  Buffer.add_int64_be buf (Int64.of_int index);
  Buffer.add_int32_be buf (Int32.of_int (String.length der));
  Buffer.add_string buf der;
  Buffer.add_int32_be buf (Int32.of_int (String.length detail));
  Buffer.add_string buf detail

let journal_invalid file fmt =
  Printf.ksprintf
    (fun s -> raise (Faults.Checkpoint.Invalid (Printf.sprintf "%s: %s" file s)))
    fmt

(* A journal shorter than its cursor's committed length has lost
   history that the cursor counts as delivered. *)
let journal_short file ~size ~committed =
  journal_invalid file
    "journal holds %d bytes but the cursor committed %d; delete the cursor \
     and its journal or rerun without --resume"
    size committed

(* Append [buf] at byte [at], the committed length of cursor [ckpt]'s
   journal. *)
let append_journal ckpt ~at buf =
  let file = Faults.Checkpoint.journal_file ckpt in
  let fd =
    Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
  in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if size < at then journal_short file ~size ~committed:at;
      if size > at then Unix.ftruncate fd at;
      seek_out oc at;
      Buffer.output_buffer oc buf;
      close_out oc)

(* The committed history of cursor [c], saved at [ckpt]: delivered and
   quarantined streams, each ascending. *)
let read_journal ckpt ~name c =
  let file = Faults.Checkpoint.journal_file ckpt in
  let records = c.c_delivered + c.c_quarantined and bytes = c.c_journal_bytes in
  if records = 0 && bytes = 0 then ([], [])
  else
    let data =
      match open_in_bin file with
      | exception Sys_error _ ->
          journal_invalid file "journal missing; the cursor committed %d records"
            records
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let size = in_channel_length ic in
              if size < bytes then journal_short file ~size ~committed:bytes;
              really_input_string ic bytes)
    in
    let corrupt () = journal_invalid file "corrupt journal record" in
    let field pos =
      if pos + 4 > bytes then corrupt ();
      let n = Int32.to_int (String.get_int32_be data pos) in
      if n < 0 || pos + 4 + n > bytes then corrupt ();
      (String.sub data (pos + 4) n, pos + 4 + n)
    in
    let rec go pos n raw quar =
      if pos = bytes then begin
        if n <> records then
          journal_invalid file "journal holds %d records, the cursor committed %d"
            n records;
        (List.rev raw, List.rev quar)
      end
      else begin
        if pos + 9 > bytes then corrupt ();
        let index = Int64.to_int (String.get_int64_be data (pos + 1)) in
        let der, pos' = field (pos + 9) in
        let detail, pos' = field pos' in
        match data.[pos] with
        | 'D' -> go pos' (n + 1) ((index, der) :: raw) quar
        | 'Q' ->
            go pos' (n + 1) raw
              ((index, der, Faults.Error.Integrity { log = name; detail }) :: quar)
        | _ -> corrupt ()
      end
    in
    go 0 0 [] []

(* --- telemetry --------------------------------------------------------- *)

let obs_pages =
  lazy
    (Obs.Registry.counter ~help:"get-entries pages fetched successfully"
       "unicert_fetch_pages_total")

let obs_entries =
  lazy
    (Obs.Registry.labeled_counter ~label:"log"
       ~help:"Log entries delivered by the fetch client"
       "unicert_fetch_entries_total")

let obs_sth =
  lazy
    (Obs.Registry.counter ~help:"STHs fetched and verified against the previous checkpoint"
       "unicert_fetch_sth_verified_total")

let obs_split =
  lazy
    (Obs.Registry.labeled_counter ~label:"log"
       ~help:"Split views detected (STH consistency or leaf-root mismatch)"
       "unicert_fetch_split_views_total")

let obs_abandoned =
  lazy
    (Obs.Registry.labeled_counter ~label:"log"
       ~help:"Logs abandoned before full coverage"
       "unicert_fetch_abandoned_total")

let obs_gaps =
  lazy
    (Obs.Registry.counter ~help:"Pages skipped after exhausting their retry budget"
       "unicert_fetch_page_gaps_total")

let prewarm () =
  Net.Transport.prewarm ();
  Net.Client.prewarm ();
  Faults.Breaker.prewarm ();
  Faults.Error.prewarm ();
  Dataset.prewarm ();
  ignore (Lazy.force obs_pages);
  ignore (Lazy.force obs_entries);
  ignore (Lazy.force obs_sth);
  ignore (Lazy.force obs_split);
  ignore (Lazy.force obs_abandoned);
  ignore (Lazy.force obs_gaps)

(* --- body parsing ------------------------------------------------------ *)

let parse_sth lines =
  match lines with
  | [ l ] -> (
      match String.split_on_char ' ' l with
      | [ "sth"; n; root ] -> (
          match (int_of_string_opt n, Wire.of_hex root) with
          | Some n, Some root when n >= 0 -> Some (n, root)
          | _ -> None)
      | _ -> None)
  | _ -> None

let parse_consistency lines =
  match lines with
  | header :: hashes -> (
      match String.split_on_char ' ' header with
      | [ "consistency"; _; _; k ] when int_of_string_opt k = Some (List.length hashes)
        ->
          let decoded = List.filter_map Wire.of_hex hashes in
          if List.length decoded = List.length hashes then Some decoded else None
      | _ -> None)
  | [] -> None

let parse_entries lines =
  match lines with
  | header :: rows -> (
      match String.split_on_char ' ' header with
      | [ "entries"; start; count ]
        when int_of_string_opt count = Some (List.length rows) -> (
          match int_of_string_opt start with
          | Some start when start >= 0 ->
              let decoded =
                List.filter_map
                  (fun row ->
                    match String.split_on_char ' ' row with
                    | [ "0"; der ] -> Option.map (fun d -> (false, d)) (Wire.of_hex der)
                    | [ "1"; der ] -> Option.map (fun d -> (true, d)) (Wire.of_hex der)
                    | _ -> None)
                  rows
              in
              if List.length decoded = List.length rows then Some (start, decoded)
              else None
          | _ -> None)
      | _ -> None)
  | [] -> None

(* --- one log session --------------------------------------------------- *)

type session = {
  s_raw : (int * string) list;  (* ascending corpus index *)
  s_quar : (int * string * Faults.Error.t) list;  (* ascending *)
  s_cov : coverage;
  s_interrupted : bool;
}

exception Stop of string     (* abandon this log *)
exception Interrupted        (* stop_after_pages test hook *)
exception Bad_page           (* one failed/malformed page *)

(* What one session leaves behind.  [o_saved] is the cursor as last
   saved: the next session resumes from exactly that state, whether it
   keeps it in memory or reloads it from the file (every step that
   changes the tree or the journal ends in a save; only the closing
   STH refresh of a finished session is not saved).
   [o_raw]/[o_quar] are this session's new deliveries, ascending. *)
type outcome = {
  o_saved : cursor;
  o_raw : (int * string) list;
  o_quar : (int * string * Faults.Error.t) list;
  o_cov : coverage;
  o_interrupted : bool;
}

let count_expected present =
  Array.fold_left (fun n i -> if i >= 0 then n + 1 else n) 0 present

(* One session from cursor [cur].  [present.(tree_index)] is the corpus
   index an entry maps to, or -1 for entries (precertificates) the
   analysis must skip; [expected] is the number of mapped entries. *)
let run_session ?ckpt_file ?stop_after_pages ~cfg ~scale ~seed ~name
    ~(present : int array) ~expected ~transport ~bucket cur =
  (* The whole per-log session is one trace slice on the worker
     domain's track; page fetches, STH refreshes and consistency
     checks nest inside it, with quarantine/breaker events as instant
     marks. *)
  Obs.Trace.span ~cat:"fetch" ~args:[ ("log", Obs.Trace.Str name) ] "session"
  @@ fun () ->
  let policy = cfg.policy in
  let clock = Net.Transport.clock transport in
  let breaker =
    Faults.Breaker.create ~threshold:cfg.breaker_threshold
      ~cooldown:cfg.breaker_cooldown ("fetch:" ^ name)
  in
  let next = ref cur.c_next in
  let verified = ref cur.c_verified in
  let tree = ref cur.c_tree in
  let tree_ok = ref cur.c_tree_ok in
  let refresh = ref cur.c_refresh in
  let pend = ref cur.c_pend in
  let delivered = ref cur.c_delivered in
  let quarantined = ref cur.c_quarantined in
  let journal_bytes = ref cur.c_journal_bytes in
  let spans = ref cur.c_spans in
  let last_covered = ref cur.c_last_covered in
  let gaps = ref cur.c_gaps in
  let requests = ref cur.c_requests in
  let retries = ref cur.c_retries in
  let new_raw = ref [] in
  let new_quar = ref [] in
  let unsaved = Buffer.create 4096 in  (* journal records not yet written *)
  let saved = ref cur in
  let split = ref false in
  let abandoned = ref None in
  let interrupted = ref false in
  let pages_this_session = ref 0 in
  (* Journal first, then the cursor: a crash between the two leaves a
     torn tail the cursor does not count. *)
  let save_ckpt () =
    Option.iter
      (fun file ->
        if Buffer.length unsaved > 0 then begin
          append_journal file ~at:!journal_bytes unsaved;
          journal_bytes := !journal_bytes + Buffer.length unsaved;
          Buffer.clear unsaved
        end;
        let c =
          {
            c_log = name;
            c_next = !next;
            c_verified = !verified;
            c_tree = !tree;
            c_tree_ok = !tree_ok;
            c_refresh = !refresh;
            c_pend = !pend;
            c_delivered = !delivered;
            c_quarantined = !quarantined;
            c_journal_bytes = !journal_bytes;
            c_spans = !spans;
            c_last_covered = !last_covered;
            c_gaps = !gaps;
            c_requests = !requests;
            c_retries = !retries;
          }
        in
        Faults.Checkpoint.save file
          { Faults.Checkpoint.scale; seed; next_index = !next; state = c };
        saved := c)
      ckpt_file
  in
  (* Record the entry at tree index [ti] as covered: journal it and
     extend the coverage spans.  Entries arrive in ascending tree order,
     and an entry continues the newest span when only unmapped entries
     (present = -1) lie between it and the last covered one — so a
     dropped corpus index between them is not a coverage gap. *)
  let cover ~tag ti der detail =
    let ci = present.(ti) in
    if ckpt_file <> None then add_record unsaved ~tag ~index:ci ~der ~detail;
    let rec unmapped j = j >= ti || (present.(j) < 0 && unmapped (j + 1)) in
    (spans :=
       match !spans with
       | (lo, _) :: rest when !last_covered >= 0 && unmapped (!last_covered + 1)
         ->
           (lo, ci) :: rest
       | l -> (ci, ci) :: l);
    last_covered := ti;
    ci
  in
  let mapped ti precert =
    (not precert) && ti < Array.length present && present.(ti) >= 0
  in
  let now () = Net.Clock.now clock in
  let attempts_of_error = function
    | Net.Client.Attempts_exhausted { attempts; _ }
    | Net.Client.Budget_exhausted { attempts; _ } ->
        attempts
  in
  (* One client request behind the breaker.  An open breaker waits out
     its cooldown on the virtual clock, then probes; past [max_trips]
     the log is abandoned. *)
  let call ?(hedge = false) ~endpoint ~page () =
    if not (Faults.Breaker.allow ~now:(now ()) breaker) then begin
      (match Faults.Breaker.cooldown_until breaker with
      | Some t -> Net.Clock.advance_to clock t
      | None -> ());
      ignore (Faults.Breaker.allow ~now:(now ()) breaker)
    end;
    (* Every body the client accepts is seal-checked exactly once:
       the validation keeps the lines it opened, keyed by the body it
       opened them from (a hedged tail page can validate two). *)
    let opened = ref [] in
    let validate body =
      match Wire.open_ body with
      | Some lines ->
          opened := (body, lines) :: !opened;
          true
      | None -> false
    in
    match
      Net.Client.request ~policy ~bucket ~hedge ~validate ~transport ~log:name
        ~endpoint ~page ()
    with
    | Ok f ->
        incr requests;
        retries := !retries + f.Net.Client.attempts - 1;
        Faults.Breaker.success breaker;
        Some (List.assq f.Net.Client.body !opened)
    | Error e ->
        incr requests;
        retries := !retries + attempts_of_error e - 1;
        Faults.Breaker.failure ~now:(now ()) breaker;
        if Faults.Breaker.trips breaker >= cfg.max_trips then begin
          if Obs.Trace.enabled () then
            Obs.Trace.instant ~cat:"fetch"
              ~args:
                [ ("log", Obs.Trace.Str name);
                  ("trips", Obs.Trace.Int (Faults.Breaker.trips breaker)) ]
              "breaker-trip";
          raise
            (Stop
               (Printf.sprintf "breaker open after %d trips (%s)"
                  (Faults.Breaker.trips breaker)
                  (Net.Client.describe e)))
        end;
        None
  in
  (* Split view (or any unverifiable window): the unverified range goes
     to quarantine as Integrity and the log is abandoned. *)
  let quarantine_pending reason =
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~cat:"fetch"
        ~args:[ ("log", Obs.Trace.Str name); ("reason", Obs.Trace.Str reason) ]
        "quarantine";
    split := true;
    Obs.Counter.inc (Obs.Counter.Labeled.get (Lazy.force obs_split) name);
    List.iter
      (fun (ti, precert, der) ->
        if mapped ti precert then begin
          let ci = cover ~tag:'Q' ti der reason in
          incr quarantined;
          new_quar :=
            (ci, der, Faults.Error.Integrity { log = name; detail = reason })
            :: !new_quar
        end)
      (List.rev !pend);
    pend := [];
    raise (Stop reason)
  in
  let get_sth () =
    Obs.Trace.span ~cat:"fetch" "sth-refresh" @@ fun () ->
    let rec go () =
      incr refresh;
      match call ~endpoint:"get-sth" ~page:!refresh () with
      | Some lines -> (
          match parse_sth lines with
          | Some sth -> sth
          | None ->
              Faults.Breaker.failure ~now:(now ()) breaker;
              if Faults.Breaker.trips breaker >= cfg.max_trips then
                raise (Stop "breaker open (malformed STH)");
              go ())
      | None -> go ()
    in
    go ()
  in
  (* Verify a refreshed STH against the trusted one (the checkpointed
     STH, on a resumed session). *)
  let check_sth (n1, r1) =
    Obs.Trace.span ~cat:"fetch" "check-sth" @@ fun () ->
    (match !verified with
    | None -> ()
    | Some (n0, r0) ->
        if n1 = n0 then begin
          if not (String.equal r1 r0) then
            quarantine_pending
              (Printf.sprintf "split view: same size %d, different roots" n1)
        end
        else if n1 < n0 then
          quarantine_pending
            (Printf.sprintf "split view: tree shrank %d -> %d" n0 n1)
        else begin
          let proof =
            let rec go tries =
              if tries >= 3 then
                quarantine_pending
                  (Printf.sprintf "consistency proof %d -> %d unavailable" n0 n1)
              else
                match
                  call
                    ~endpoint:("get-consistency/" ^ string_of_int n1)
                    ~page:n0 ()
                with
                | Some lines -> (
                    match parse_consistency lines with
                    | Some proof -> proof
                    | None -> go (tries + 1))
                | None -> go (tries + 1)
            in
            go 0
          in
          if
            not
              (Merkle.verify_consistency ~old_size:n0 ~old_root:r0 ~new_size:n1
                 ~new_root:r1 ~proof)
          then
            quarantine_pending
              (Printf.sprintf
                 "split view: consistency proof %d -> %d failed verification" n0
                 n1)
        end);
    verified := Some (n1, r1);
    Obs.Counter.inc (Lazy.force obs_sth)
  in
  (* Fetch the page starting at [!next]. *)
  let fetch_page ~tail =
    Obs.Trace.span ~cat:"fetch"
      ~args:[ ("start", Obs.Trace.Int !next) ]
      "page"
    @@ fun () ->
    let start = !next in
    (match call ~hedge:tail ~endpoint:"get-entries" ~page:start () with
    | None -> raise Bad_page
    | Some lines -> (
        match parse_entries lines with
        | Some (s, rows) when s = start && rows <> [] ->
            if !tree_ok && !tree.t_size = start then
              List.iter
                (fun (precert, der) ->
                  tree := tree_append !tree (Log.leaf_bytes ~precert der))
                rows
            else tree_ok := false;
            List.iteri
              (fun i (precert, der) -> pend := (start + i, precert, der) :: !pend)
              rows;
            next := start + List.length rows;
            Obs.Counter.inc (Lazy.force obs_pages)
        | _ -> raise Bad_page));
    incr pages_this_session;
    if !pages_this_session mod 16 = 0 then save_ckpt ();
    match stop_after_pages with
    | Some k when !pages_this_session >= k -> raise Interrupted
    | _ -> ()
  in
  let skip_page ~stop =
    incr gaps;
    tree_ok := false;
    Obs.Counter.inc (Lazy.force obs_gaps);
    next := min stop (!next + cfg.page_cap)
  in
  (* Window close: the running leaf tree must reproduce the verified
     root (when no gap broke it), then the pending entries inside the
     verified prefix become deliverable.  A server may serve past the
     STH we are working against (it published again mid-window); those
     entries stay pending until a later STH covers them. *)
  let flush_at n root =
    if !tree_ok && !tree.t_size >= n && n >= Merkle.compact_size !tree.t_base
    then begin
      let got, closed = tree_close !tree n in
      if not (String.equal got root) then
        quarantine_pending
          (Printf.sprintf "split view: leaf root mismatch at size %d" n);
      tree := closed
    end;
    let deliver, keep =
      List.partition (fun (ti, _, _) -> ti < n) (List.rev !pend)
    in
    let obs_delivered = Obs.Counter.Labeled.get (Lazy.force obs_entries) name in
    List.iter
      (fun (ti, precert, der) ->
        if mapped ti precert then begin
          let ci = cover ~tag:'D' ti der "" in
          incr delivered;
          new_raw := (ci, der) :: !new_raw;
          Obs.Counter.inc obs_delivered
        end)
      deliver;
    pend := List.rev keep;
    save_ckpt ()
  in
  (try
     let finished = ref false in
     while not !finished do
       let n1, r1 = get_sth () in
       check_sth (n1, r1);
       if !next >= n1 && !pend = [] then finished := true
       else begin
         let since_tripwire = ref 0 in
         while !next < n1 do
           let tail = !next + cfg.page_cap >= n1 in
           (try fetch_page ~tail with Bad_page -> skip_page ~stop:n1);
           incr since_tripwire;
           if !since_tripwire >= max 1 cfg.sth_every && !next < n1 then begin
             since_tripwire := 0;
             (* Mid-window tripwire: the published head must still be
                consistent with what we trusted. *)
             let sth = get_sth () in
             check_sth sth
           end
         done;
         flush_at n1 r1
       end
     done
   with
  | Stop reason ->
      abandoned := Some reason;
      Obs.Counter.inc (Obs.Counter.Labeled.get (Lazy.force obs_abandoned) name);
      save_ckpt ()
  | Interrupted ->
      interrupted := true;
      save_ckpt ());
  {
    o_saved = !saved;
    o_raw = List.rev !new_raw;
    o_quar = List.rev !new_quar;
    o_cov =
      {
        log = name;
        expected;
        delivered = !delivered;
        quarantined = !quarantined;
        spans = List.rev !spans;
        page_gaps = !gaps;
        abandoned = !abandoned;
        split_view = !split;
        requests = !requests;
        retries = !retries;
      };
    o_interrupted = !interrupted;
  }

(* A session result: the [history] a resumed cursor had already
   delivered, then what this session added. *)
let session_of (raw, quar) o =
  {
    s_raw = raw @ o.o_raw;
    s_quar = quar @ o.o_quar;
    s_cov = o.o_cov;
    s_interrupted = o.o_interrupted;
  }

let fetch_log ?ckpt_file ?(resume = false) ?stop_after_pages ~cfg ~scale ~seed
    ~name ~present ~transport ~bucket () =
  let cur, history =
    match ckpt_file with
    | Some file when resume ->
        let c = load_cursor file ~scale ~seed ~name in
        (c, read_journal file ~name c)
    | _ -> (fresh_cursor name, ([], []))
  in
  session_of history
    (run_session ?ckpt_file ?stop_after_pages ~cfg ~scale ~seed ~name ~present
       ~expected:(count_expected present) ~transport ~bucket cur)

(* --- the corpus source ------------------------------------------------- *)

(* Derive the fault-plan seed from the corpus seed unless pinned, so
   "same seed" reruns replay both the data and the weather. *)
let plan_of cfg ~seed =
  {
    Net.Fault.default_plan with
    Net.Fault.seed = (match cfg.net_seed with Some s -> s | None -> seed lxor 0x7E7);
    rate = cfg.fault_rate;
    kinds = cfg.fault_kinds;
    flap_rate = cfg.flap_rate;
  }

(* Merge one session's delivered and quarantined streams back into a
   single ascending item stream, parsing delivered DER into entries. *)
let items_of_session s =
  let rec merge raws quars =
    match (raws, quars) with
    | [], [] -> []
    | (ci, der) :: rest, [] -> item_of ci der :: merge rest []
    | [], (ci, der, e) :: rest -> Undecodable (ci, der, e) :: merge [] rest
    | ((ci, der) :: rrest as rs), ((qi, qder, qe) :: qrest as qs) ->
        if ci <= qi then item_of ci der :: merge rrest qs
        else Undecodable (qi, qder, qe) :: merge rs qrest
  and item_of ci der =
    match X509.Certificate.parse der with
    | Error e -> Undecodable (ci, der, e)
    | Ok cert -> (
        match Dataset.entry_of_cert cert with
        | Ok entry -> Got (ci, entry)
        | Error e -> Undecodable (ci, der, e))
  in
  merge s.s_raw s.s_quar

let corpus ?(scale = Dataset.default_scale) ~seed ?mutator ?(drop = false)
    ?checkpoint ?(resume = false) ?stop_after_pages ?(jobs = 1) cfg =
  prewarm ();
  let parts = Par.shards ~jobs:cfg.logs scale in
  let plan = plan_of cfg ~seed in
  let tasks =
    List.mapi
      (fun k (lo, hi) () ->
        let name = log_name k in
        let log = Log.create ~name in
        let present = ref [] in
        Dataset.iter_deliveries ~scale ~start:lo ~stop:hi ?mutator ~drop ~seed
          (fun index delivery ->
            match delivery with
            | Dataset.Entry e ->
                ignore (Log.add_chain log e.Dataset.cert.X509.Certificate.der);
                present := index :: !present
            | Dataset.Corrupt { der; _ } ->
                ignore (Log.add_chain log der);
                present := index :: !present);
        let present = Array.of_list (List.rev !present) in
        let server = Server.create ~page_cap:cfg.page_cap ~name log in
        List.iter
          (fun (n, at_request, flip) ->
            if n = name then Server.equivocate_after server ~at_request ~flip)
          cfg.equivocate;
        let clock = Net.Clock.create () in
        let transport =
          Net.Transport.create ~plan
            ~down:(fun l -> List.mem l cfg.down)
            ~clock (Server.handle server)
        in
        let bucket =
          Net.Bucket.create ~clock ~rate:cfg.rate_per_sec ~burst:cfg.burst
        in
        let ckpt_file = Option.map (fun f -> cursor_file f k) checkpoint in
        fetch_log ?ckpt_file ~resume ?stop_after_pages ~cfg ~scale ~seed ~name
          ~present ~transport ~bucket ())
      parts
  in
  let sessions = Par.run ~jobs tasks in
  (* Per-log corpus-index ranges are contiguous and ascending, so
     joining per-log streams in log order keeps items globally
     ascending — the same order the generate source uses. *)
  let items = List.concat_map items_of_session sessions in
  (items, List.map (fun s -> s.s_cov) sessions)

(* --- long-lived feeds (the monitor daemon) ----------------------------- *)

(* A feed is one log's whole fetch apparatus kept alive between polls:
   the populated log and its server, the per-log clock, transport and
   token bucket, and the session state.  The server starts with nothing
   published; the driver grows it with {!feed_publish} and each {!poll}
   runs an ordinary session against the currently published head.

   The cursor stays in memory between polls ([f_cursor]); the cursor
   file is read only while the feed is fresh, i.e. once per process.
   Each save rewrites the small cursor and appends what arrived to the
   journal, so a poll costs what arrived, not the log's history. *)
type feed = {
  f_k : int;
  f_name : string;
  f_lo : int;
  f_hi : int;
  f_present : int array;
  f_expected : int;
  f_server : Server.t;
  f_transport : Net.Transport.t;
  f_bucket : Net.Bucket.t;
  f_ckpt : string;
  f_cfg : cfg;
  f_scale : int;
  f_seed : int;
  mutable f_cursor : cursor option;  (* [None]: fresh, nothing handed out *)
}

let feed_name f = f.f_name
let feed_range f = (f.f_lo, f.f_hi)
let feed_goal f = Array.length f.f_present
let feed_published f = Server.published f.f_server

let feeds ?mutator ?(drop = false) ~checkpoint ~scale ~seed cfg =
  prewarm ();
  let parts = Par.shards ~jobs:cfg.logs scale in
  let plan = plan_of cfg ~seed in
  List.mapi
    (fun k (lo, hi) ->
      let name = log_name k in
      let log = Log.create ~name in
      let present = ref [] in
      Dataset.iter_deliveries ~scale ~start:lo ~stop:hi ?mutator ~drop ~seed
        (fun index delivery ->
          match delivery with
          | Dataset.Entry e ->
              ignore (Log.add_chain log e.Dataset.cert.X509.Certificate.der);
              present := index :: !present
          | Dataset.Corrupt { der; _ } ->
              ignore (Log.add_chain log der);
              present := index :: !present);
      let present = Array.of_list (List.rev !present) in
      let server = Server.create ~page_cap:cfg.page_cap ~name log in
      Server.set_published server 0;
      List.iter
        (fun (n, at_request, flip) ->
          if n = name then Server.equivocate_after server ~at_request ~flip)
        cfg.equivocate;
      let clock = Net.Clock.create () in
      let transport =
        Net.Transport.create ~plan
          ~down:(fun l -> List.mem l cfg.down)
          ~clock (Server.handle server)
      in
      let bucket =
        Net.Bucket.create ~clock ~rate:cfg.rate_per_sec ~burst:cfg.burst
      in
      {
        f_k = k;
        f_name = name;
        f_lo = lo;
        f_hi = hi;
        f_present = present;
        f_expected = count_expected present;
        f_server = server;
        f_transport = transport;
        f_bucket = bucket;
        f_ckpt = cursor_file checkpoint k;
        f_cfg = cfg;
        f_scale = scale;
        f_seed = seed;
        f_cursor = None;
      })
    parts

let feed_publish f n =
  let n = min n (feed_goal f) in
  if n > Server.published f.f_server then Server.set_published f.f_server n

let load_feed_cursor f =
  load_cursor f.f_ckpt ~scale:f.f_scale ~seed:f.f_seed ~name:f.f_name

let feed_trusted f =
  let c = match f.f_cursor with Some c -> c | None -> load_feed_cursor f in
  Option.map fst c.c_verified

(* A fresh feed loads the cursor and re-delivers the journal's history
   first.  A poll that raises leaves the feed fresh, so the next one
   resumes from the last saved cursor. *)
let poll ?stop_after_pages f =
  let cur, history =
    match f.f_cursor with
    | Some c -> (c, ([], []))
    | None ->
        let c = load_feed_cursor f in
        (c, read_journal f.f_ckpt ~name:f.f_name c)
  in
  f.f_cursor <- None;
  let o =
    run_session ~ckpt_file:f.f_ckpt ?stop_after_pages ~cfg:f.f_cfg
      ~scale:f.f_scale ~seed:f.f_seed ~name:f.f_name ~present:f.f_present
      ~expected:f.f_expected ~transport:f.f_transport ~bucket:f.f_bucket cur
  in
  f.f_cursor <- Some o.o_saved;
  session_of history o
