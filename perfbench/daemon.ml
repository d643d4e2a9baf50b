(* The monitor daemon's ingest loop, rebuilt from public functions so
   that every call into a layer can carry a span: long-lived fetch
   feeds -> analyze_entry -> staging -> periodic commits (store span
   append -> save_indexes -> Db.commit -> Service.commit), exactly the
   order bin/unicert_monitord.ml uses.  Also records, per entry, the
   wall time from its publication on its log to the end of the commit
   that made it queryable. *)

module P = Unicert.Pipeline

let sp = Spans.with_

(* The 10% net-fault rate test/serve_smoke.ml runs the daemon at, with
   transient kinds only: each fault is retried, none quarantines an
   entry, so every published entry is eventually committed. *)
let cfg ~seed =
  {
    Ctlog.Fetch.default_cfg with
    Ctlog.Fetch.net_seed = Some (seed lxor 0x5eed);
    fault_rate = 0.1;
    fault_kinds =
      Net.Fault.[ Slow; Timeout; Reset; Rate_limit; Server_error; Truncate ];
  }

type feed_state = {
  feed : Ctlog.Fetch.feed;
  lo : int;
  hi : int;
  mutable mark : int;  (* next corpus index not yet committed *)
  mutable next : int;  (* next corpus index not yet staged *)
  mutable pending : (Store.Db.record * string) list;  (* newest first *)
  mutable last_cov : Ctlog.Fetch.coverage option;
  pub_at : float array;  (* publication time per tree index *)
}

type t = {
  db : Store.Db.t;
  lints : string;
  states : feed_state list;
  mutable service : Monitors.Service.t;
  mutable acc : P.index_acc;
  mutable segments : (Store.Manifest.seg * Store.Manifest.seg) list;
  mutable committed : int;
  mutable staged : int;  (* staged, not yet committed *)
  mutable ticks : int;
  mutable polls : int;
  mutable undecodable : int;
  mutable backlog_max : int;
  lags : Util.Fbuf.t;  (* seconds, one per committed entry *)
}

let create ~dir ~scale ~seed =
  let lints = P.lints_signature () in
  let cfg = cfg ~seed in
  let fingerprint =
    P.store_fingerprint ~mutator:None ~drop:false ~source:(P.Fetch cfg)
  in
  Store.Db.prewarm ();
  Ctlog.Fetch.prewarm ();
  Monitors.Service.prewarm ();
  Net.Listener.prewarm ();
  let db = Store.Db.create ~dir ~scale ~seed ~fingerprint in
  Store.Db.recover db ~lints;
  let states =
    Ctlog.Fetch.feeds ~checkpoint:(Filename.concat dir "cursors") ~scale ~seed
      cfg
    |> List.map (fun feed ->
           let lo, hi = Ctlog.Fetch.feed_range feed in
           {
             feed;
             lo;
             hi;
             mark = lo;
             next = lo;
             pending = [];
             last_cov = None;
             pub_at = Array.make (hi - lo) 0.;
           })
  in
  {
    db;
    lints;
    states;
    service = Monitors.Service.create ();
    acc = P.fresh_acc ();
    segments = [];
    committed = 0;
    staged = 0;
    ticks = 0;
    polls = 0;
    undecodable = 0;
    backlog_max = 0;
    lags = Util.Fbuf.create ();
  }

(* One row's serving material: subject fields plus its entries in the
   five index families — the daemon's staging path. *)
let stage_row service row =
  Monitors.Service.stage_fields service ~id:(P.row_index row)
    ~cns:(P.row_cns row) ~sans:(P.row_domains row) ~attrs:(P.row_attrs row);
  let one = P.fresh_acc () in
  P.add_index_entries one row;
  List.iter
    (fun (ix, entries) ->
      List.iter
        (fun (key, ids) ->
          List.iter
            (fun id -> Monitors.Service.stage_index service ~index:ix ~key ~id)
            ids)
        entries)
    (P.merge_accs [ one ])

let stage_item t fs item =
  let entry =
    match (item : Ctlog.Fetch.item) with
    | Ctlog.Fetch.Got (index, entry) ->
        let row =
          sp "pipeline.analyze_entry" ~rid:index (fun () ->
              P.analyze_entry entry ~index)
        in
        sp "index.add" ~rid:index (fun () -> P.add_index_entries t.acc row);
        sp "service.stage" ~rid:index (fun () -> stage_row t.service row);
        ( Store.Db.Cert { index; der = entry.Ctlog.Dataset.cert.X509.Certificate.der },
          sp "pipeline.encode_row" ~rid:index (fun () -> P.encode_row row) )
    | Ctlog.Fetch.Undecodable (index, der, error) ->
        t.undecodable <- t.undecodable + 1;
        ( Store.Db.Fault
            {
              index;
              class_ = Faults.Error.class_name error;
              detail = Faults.Error.detail error;
              der;
            },
          "F" )
  in
  fs.pending <- entry :: fs.pending;
  t.staged <- t.staged + 1

(* Publish [per_log] more entries on every log, poll every feed and
   stage what it delivered. *)
let tick t ~per_log =
  t.ticks <- t.ticks + 1;
  let rid = t.ticks in
  let now = Util.now () in
  List.iter
    (fun fs ->
      let before = Ctlog.Fetch.feed_published fs.feed in
      sp "fetch.publish" ~rid (fun () ->
          Ctlog.Fetch.feed_publish fs.feed (before + per_log));
      for k = before to Ctlog.Fetch.feed_published fs.feed - 1 do
        fs.pub_at.(k) <- now
      done)
    t.states;
  List.iter
    (fun fs ->
      let s = sp "fetch.poll" ~rid (fun () -> Ctlog.Fetch.poll fs.feed) in
      t.polls <- t.polls + 1;
      fs.last_cov <- Some s.Ctlog.Fetch.s_cov;
      let items =
        sp "fetch.items_of_session" ~rid (fun () ->
            Ctlog.Fetch.items_of_session s)
      in
      List.iter
        (fun item ->
          let index = Ctlog.Fetch.item_index item in
          if index >= fs.next then begin
            stage_item t fs item;
            fs.next <- index + 1
          end)
        items)
    t.states

let complete t = List.for_all (fun fs -> fs.mark >= fs.hi) t.states

(* Land everything staged: one sealed span per log, the indexes, the
   manifest, then the service snapshot. *)
let commit t =
  let rid = t.ticks in
  t.backlog_max <- max t.backlog_max t.staged;
  let landed = ref [] in
  sp "commit" ~rid (fun () ->
      let fresh =
        List.filter_map
          (fun fs ->
            match List.rev fs.pending with
            | [] -> None
            | items ->
                let last =
                  List.fold_left
                    (fun a (r, _) -> max a (Store.Db.index_of_record r))
                    (fs.mark - 1) items
                in
                let all_in =
                  match fs.last_cov with
                  | Some c ->
                      c.Ctlog.Fetch.delivered + c.Ctlog.Fetch.quarantined
                      >= c.Ctlog.Fetch.expected
                      && Ctlog.Fetch.feed_published fs.feed
                         >= Ctlog.Fetch.feed_goal fs.feed
                  | None -> false
                in
                let hi = if all_in then fs.hi else last + 1 in
                let pw =
                  sp "store.start_span" ~rid (fun () ->
                      Store.Db.start_span t.db ~lints:t.lints ~lo:fs.mark ~hi)
                in
                List.iter
                  (fun (record, row) ->
                    let index = Store.Db.index_of_record record in
                    sp "store.append" ~rid:index (fun () ->
                        Store.Db.append pw record ~row);
                    landed := (fs, index) :: !landed)
                  items;
                let pair =
                  sp "store.finish_span" ~rid (fun () -> Store.Db.finish_span pw)
                in
                fs.mark <- hi;
                fs.next <- max fs.next hi;
                t.committed <- t.committed + List.length items;
                fs.pending <- [];
                Some pair)
          t.states
      in
      if fresh <> [] then begin
        let pairs =
          List.sort
            (fun ((a : Store.Manifest.seg), _) (b, _) ->
              compare a.Store.Manifest.lo b.Store.Manifest.lo)
            (t.segments @ fresh)
        in
        t.segments <- pairs;
        let merged = sp "index.merge" ~rid (fun () -> P.merge_accs [ t.acc ]) in
        let indexes = sp "index.save" ~rid (fun () -> P.save_indexes t.db merged) in
        let man : Store.Manifest.t =
          {
            state = (if complete t then `Complete else `Building);
            lints = t.lints;
            segments = List.map fst pairs;
            rows = List.map snd pairs;
            indexes;
            meta = [];
          }
        in
        sp "store.commit" ~rid (fun () -> Store.Db.commit t.db man)
      end;
      sp "service.commit" ~rid (fun () ->
          Monitors.Service.commit t.service ~upto:t.committed));
  let t1 = Util.now () in
  t.staged <- 0;
  List.iter
    (fun (fs, index) -> Util.Fbuf.add t.lags (t1 -. fs.pub_at.(index - fs.lo)))
    !landed

(* Restart the query service from the committed store: read every
   stored row back and stage it, then publish it in one commit.
   Returns (rows, read seconds, commit seconds). *)
let replay_into db =
  let service = Monitors.Service.create () and acc = P.fresh_acc () in
  let rows = ref 0 in
  let (), read_s =
    Util.time (fun () ->
        Store.Db.iter_pairs db (fun recd rowstr ->
            incr rows;
            match recd with
            | Store.Db.Fault _ -> ()
            | Store.Db.Cert _ -> (
                match P.decode_row rowstr with
                | Ok row ->
                    P.add_index_entries acc row;
                    stage_row service row
                | Error e -> failwith ("stored row undecodable: " ^ e))))
  in
  let (), commit_s =
    Util.time (fun () -> Monitors.Service.commit service ~upto:!rows)
  in
  (service, acc, !rows, read_s, commit_s)

(* The live service must answer [battery] exactly as a service rebuilt
   from the committed store does.  Also returns the replay's row count,
   read seconds and commit seconds. *)
let check_against_replay t battery =
  let replayed, _, rows, read_s, commit_s =
    replay_into (Store.Db.open_ro ~dir:(Store.Db.dir t.db))
  in
  let diff =
    List.filter
      (fun line ->
        Monitors.Service.respond t.service line
        <> Monitors.Service.respond replayed line)
      battery
  in
  List.iter (fun l -> Util.log "replay mismatch: %s" l) diff;
  (rows = t.committed && diff = [], (rows, read_s, commit_s))

let retries t =
  List.fold_left
    (fun a fs ->
      match fs.last_cov with Some c -> a + c.Ctlog.Fetch.retries | None -> a)
    0 t.states
