(* The measured benchmark: four workloads, each in one process, each with
   a correctness oracle. End-to-end metrics come from untraced runs;
   [--trace 1] adds one span around every call into a layer and prints
   the per-layer numbers. See README.md for why each workload exists. *)

module Engine = Core.Engine
module Region = Nvm.Region
module Value = Storage.Value
module Prng = Util.Prng
module Pred = Query.Predicate
open Harness

(* -- pinned configuration (the same on both sides of a comparison) -- *)

let jobs = 2
let writers = 1
let log_policy = `Value
let group_commit = 8
let log_fsync = false
let setup_reps = 3
let mib = 1024 * 1024

let pin e =
  Engine.set_writers e writers;
  Engine.set_log_policy e log_policy

(* -- run state -- *)

type ctx = {
  work : string;
  seed : int;
  ledger : bool;  (** a traced run: both of its passes time the extra layer probes *)
  samples : (string, samples) Hashtbl.t;
  counts : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable violations : string list;
  mutable committed : int;  (** committed transactions in timed traffic *)
  mutable traffic_s : float;  (** wall time of the timed traffic phases *)
  mutable ops : int;  (** operations in the timed traffic phases *)
  mutable txns : int;  (** write transactions in the timed traffic phases *)
  mutable user_bytes : int;  (** payload bytes the benchmark generated *)
  mutable stored_bytes : int;  (** data or log bytes they occupy *)
}

let sample c name v =
  let s =
    match Hashtbl.find_opt c.samples name with
    | Some s -> s
    | None ->
        let s = samples () in
        Hashtbl.replace c.samples name s;
        s
  in
  add s v

let get_samples c name =
  match Hashtbl.find_opt c.samples name with Some s -> s | None -> samples ()

let count c name v =
  let old = Option.value ~default:0.0 (Hashtbl.find_opt c.counts name) in
  Hashtbl.replace c.counts name (old +. v)

let get_count c name = Option.value ~default:0.0 (Hashtbl.find_opt c.counts name)

let violation c msg =
  c.violations <- msg :: c.violations;
  c.failed <- c.failed + 1

(* Time [f] in seconds. *)
let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

let us s = s *. 1e6
let ms s = s *. 1e3

(* Region, pool and GC ledgers over the timed traffic phases: [traffic c
   region ~ops f] runs one phase of [ops] operations, adds its wall time
   to the throughput denominator and its counter deltas to the per-op
   ledger. *)
let region_delta c region f =
  let a = Region.stats region in
  let r = f () in
  let b = Region.stats region in
  count c "nvm.loads" (float_of_int (b.loads - a.loads));
  count c "nvm.stores" (float_of_int (b.stores - a.stores));
  count c "nvm.writebacks" (float_of_int (b.writebacks - a.writebacks));
  count c "nvm.fences" (float_of_int (b.fences - a.fences));
  count c "nvm.elided_fences" (float_of_int (b.elided_fences - a.elided_fences));
  count c "nvm.sim_ns" (float_of_int (b.sim_ns - a.sim_ns));
  r

let par_counter name = Obs.counter_value (Obs.counter name)

let traffic c region ~ops f =
  let p0 = par_counter "par.tasks"
  and w0 = par_counter "par.steal_waits"
  and b0 = par_counter "par.worker_busy_ns" in
  let g0 = Gc.quick_stat () in
  let r, dt = timed (fun () -> region_delta c region f) in
  let g1 = Gc.quick_stat () in
  count c "gc.minor_words" (g1.minor_words -. g0.minor_words);
  count c "gc.minor_collections" (float_of_int (g1.minor_collections - g0.minor_collections));
  count c "gc.major_collections" (float_of_int (g1.major_collections - g0.major_collections));
  c.traffic_s <- c.traffic_s +. dt;
  c.ops <- c.ops + ops;
  count c "par.tasks" (float_of_int (par_counter "par.tasks" - p0));
  count c "par.steal_waits" (float_of_int (par_counter "par.steal_waits" - w0));
  count c "par.busy_ns" (float_of_int (par_counter "par.worker_busy_ns" - b0));
  r

(* One read-only transaction around [f], its commit timed alone. *)
let read_txn c e f =
  let txn = span "txn" "Engine.begin_txn" (fun () -> Engine.begin_txn e) in
  let r = f txn in
  let (_ : Storage.Cid.t), dt =
    timed (fun () -> span "txn" "Engine.commit" (fun () -> Engine.commit e txn))
  in
  sample c "txn.commit_us" (us dt);
  c.committed <- c.committed + 1;
  r

(* Indexed point lookup, filed under the partition its row lives in. *)
let lookup c e txn table ~col key =
  let r, dt =
    timed (fun () ->
        span "query" "Engine.lookup" (fun () ->
            Engine.lookup e txn table ~col (Value.Int key)))
  in
  let main =
    match r with
    | (row, _) :: _ -> Storage.Table.is_main (Engine.table e table) row
    | [] -> false
  in
  sample c (if main then "query.lookup_main_us" else "query.lookup_delta_us") (us dt);
  r

let record_recovery c (rs : Engine.recovery_stats) =
  match rs.detail with
  | Engine.Rv_nvm d ->
      sample c "nvm_alloc.heap_open_ms" (float_of_int d.heap_open_ns /. 1e6);
      sample c "core.attach_ms" (float_of_int d.attach_ns /. 1e6);
      sample c "core.verify_ms" (float_of_int d.verify_ns /. 1e6);
      sample c "core.rollback_ms" (float_of_int d.rollback_ns /. 1e6);
      sample c "core.blackbox_ms" (float_of_int d.blackbox_ns /. 1e6);
      count c "nvm_alloc.heap_blocks" (float_of_int d.heap_blocks);
      count c "core.rolled_back_rows" (float_of_int d.rolled_back_rows);
      count c "core.restarts" 1.0
  | Engine.Rv_log d ->
      sample c "wal.replay_ms" (float_of_int d.replay_ns /. 1e6);
      sample c "wal.replay_decode_ms" (float_of_int d.replay_decode_ns /. 1e6);
      sample c "wal.replay_stage_ms" (float_of_int d.replay_stage_ns /. 1e6);
      sample c "wal.replay_apply_ms" (float_of_int d.replay_apply_ns /. 1e6);
      sample c "wal.ckpt_load_ms" (float_of_int d.checkpoint_load_ns /. 1e6);
      count c "core.restarts" 1.0
  | Engine.Rv_volatile -> violation c "recovery lost everything"

let checkpoint c e =
  let r, dt =
    timed (fun () -> span "storage" "Engine.checkpoint" (fun () -> Engine.checkpoint e))
  in
  sample c "storage.merge_ms" (ms dt);
  r

(* Restore to full health after a recovery: [reads] runs one batch of
   point reads, then one background step runs, until the map is empty. *)
let drain_restore c e ~reads =
  while Engine.quarantined_segments e <> [] do
    reads ();
    let progressed, dt =
      timed (fun () -> span "core" "Engine.restore_step" (fun () -> Engine.restore_step e))
    in
    if progressed then sample c "core.restore_step_ms" (ms dt)
  done

(* A fresh log directory for every engine the run creates: a new engine
   does not clear the later-epoch files an earlier one left behind. *)
let log_dirs = ref 0

let log_config c name =
  incr log_dirs;
  let dir = Filename.concat c.work (Printf.sprintf "%s-%d" name !log_dirs) in
  { Wal.Log.dir; group_commit_size = group_commit; fsync = log_fsync }

(* Where the faults land: the table's own blocks, chosen in proportion to
   their size, with the first fault always in its control block. The
   control fault makes the damage structural in every cycle (a whole-table
   rebuild on first touch), so each restart takes the same recovery path;
   faults spread over the whole heap instead reach the allocator header
   in some cycles only, and the restart times become bimodal. *)
let fault_targets e table =
  let alloc = Engine.allocator e in
  let blocks = Storage.Table.owned_blocks (Engine.table e table) in
  let sized = List.map (fun b -> (b, Nvm_alloc.Allocator.usable_size alloc b)) blocks in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 sized in
  let ctrl = List.hd sized in
  let rec pick x = function
    | (b, n) :: rest -> if x < n || rest = [] then (b, n) else pick (x - n) rest
    | [] -> ctrl
  in
  fun rng k ->
    let b, n = if k = 0 then ctrl else pick (Prng.int rng total) sized in
    (b, b + n)

(* ------------------------------------------------------------------ *)
(* YCSB client with a row model                                        *)
(* ------------------------------------------------------------------ *)

(* The benchmark issues each YCSB operation through Engine calls itself,
   so lookup, update and commit are timed apart, and it keeps a model of
   every acknowledged write to check reads and recovered state against. *)
module Ycsb_client = struct
  let cfg = { Workload.Ycsb.default_config with rows = 10_000 }
  let table = Workload.Ycsb.table_name

  type write = { key : int; before : string array option; after : string array }

  type t = {
    mutable e : Engine.t;
    model : (int, string array) Hashtbl.t;
    mutable keys : int;
    mutable zipf : Prng.Zipf.gen;
    mutable pending : write list list;
        (** acknowledged commits after the last log flush, newest first *)
    mutable flushes : int;
    mutable log_mark : int;  (** [Engine.log_bytes] when last read *)
    mutable recovering : bool;
        (** between a crash and [reconcile]: keys of unflushed commits may
            read either way until the surviving prefix is known *)
  }

  let fields_of (values : Value.t array) =
    Array.init (Array.length values - 1) (fun i ->
        match values.(i + 1) with Value.Text s -> s | _ -> "")

  let snapshot e =
    let m = Hashtbl.create 16_384 in
    Engine.with_txn e (fun txn ->
        Engine.scan e txn table (fun _ values ->
            match values.(0) with
            | Value.Int k -> Hashtbl.replace m k (fields_of values)
            | _ -> ()));
    m

  let logging e = match (Engine.config e).durability with Engine.Logging _ -> true | _ -> false

  let attach e =
    let model = snapshot e in
    let keys = Hashtbl.fold (fun k _ acc -> max k acc) model 0 in
    {
      e;
      model;
      keys;
      zipf = Prng.Zipf.create ~n:keys ~theta:cfg.zipf_theta;
      pending = [];
      flushes = Engine.log_flushes e;
      log_mark = Engine.log_bytes e;
      recovering = false;
    }

  (* Log ledger after a commit (the WAL, or the salvage archive under
     NVM); under [Logging], commits acknowledged since the last flush
     stay pending until one ticks. *)
  let note_commit c d writes =
    List.iter (fun w -> Hashtbl.replace d.model w.key w.after) writes;
    let f = Engine.log_flushes d.e and b = Engine.log_bytes d.e in
    count c "wal.bytes" (float_of_int (b - d.log_mark));
    d.log_mark <- b;
    if f <> d.flushes then begin
      count c "wal.flushes" (float_of_int (f - d.flushes));
      d.flushes <- f;
      d.pending <- []
    end
    else if writes <> [] && logging d.e then d.pending <- writes :: d.pending

  (* Point read of one key in its own read-only transaction. *)
  let read c d key =
    let rows, dt =
      timed (fun () -> read_txn c d.e (fun txn -> lookup c d.e txn table ~col:"key" key))
    in
    c.attempted <- c.attempted + 1;
    note_commit c d [];
    let unsettled () = d.recovering && List.exists (List.exists (fun w -> w.key = key)) d.pending in
    (match (rows, Hashtbl.find_opt d.model key) with
    | [ (_, values) ], Some f when fields_of values = f -> ()
    | [], None -> ()
    | _ when unsettled () -> ()
    | _ -> violation c (Printf.sprintf "ycsb read of key %d disagrees with the model" key));
    dt

  (* One write transaction: update a zipfian key or insert a fresh one. *)
  let write c d rng ~insert =
    let fl = cfg.field_length in
    let t0 = now_s () in
    let txn = span "txn" "Engine.begin_txn" (fun () -> Engine.begin_txn d.e) in
    let writes =
      if insert then begin
        let key = d.keys + 1 in
        let f = Array.init cfg.fields (fun _ -> Prng.alpha_string rng fl) in
        let row = Array.append [| Value.Int key |] (Array.map (fun s -> Value.Text s) f) in
        ignore (span "storage" "Engine.insert" (fun () -> Engine.insert d.e txn table row));
        d.keys <- key;
        c.user_bytes <- c.user_bytes + 8 + (cfg.fields * fl);
        [ { key; before = None; after = f } ]
      end
      else begin
        let key = 1 + Prng.Zipf.draw d.zipf rng in
        let fi = Prng.int rng cfg.fields in
        let text = Prng.alpha_string rng fl in
        match lookup c d.e txn table ~col:"key" key with
        | [ (row, values) ] ->
            let before = fields_of values in
            let after = Array.copy before in
            after.(fi) <- text;
            let values = Array.copy values in
            values.(fi + 1) <- Value.Text text;
            ignore
              (span "storage" "Engine.update" (fun () -> Engine.update d.e txn table row values));
            c.user_bytes <- c.user_bytes + fl;
            [ { key; before = Some before; after } ]
        | _ ->
            violation c (Printf.sprintf "ycsb update found no single row for key %d" key);
            []
      end
    in
    let (_ : Storage.Cid.t), dt =
      timed (fun () -> span "txn" "Engine.commit" (fun () -> Engine.commit d.e txn))
    in
    sample c "txn.commit_us" (us dt);
    sample c "txn_us" (us (now_s () -. t0));
    c.attempted <- c.attempted + 1;
    c.committed <- c.committed + 1;
    note_commit c d writes

  (* [ops] YCSB operations, 50/40/10 read/update/insert. *)
  let burst c d rng ~ops =
    d.zipf <- Prng.Zipf.create ~n:d.keys ~theta:cfg.zipf_theta;
    let writes = ref 0 in
    traffic c (Engine.region d.e) ~ops (fun () ->
        for _ = 1 to ops do
          let r = Prng.int rng 100 in
          if r < cfg.read_pct then
            sample c "read_us" (us (read c d (1 + Prng.Zipf.draw d.zipf rng)))
          else begin
            incr writes;
            write c d rng ~insert:(r >= cfg.read_pct + cfg.update_pct)
          end
        done);
    c.txns <- c.txns + !writes

  (* Analytic queries over the whole table, checked against the model. *)
  let queries c d rng =
    traffic c (Engine.region d.e) ~ops:6 (fun () ->
        for _ = 1 to 5 do
          let lo = 1 + Prng.int rng (max 1 (d.keys / 2)) in
          let hi = lo + (d.keys / 10) in
          let expect = ref 0 in
          Hashtbl.iter (fun k _ -> if k >= lo && k <= hi then incr expect) d.model;
          let n, dt =
            timed (fun () ->
                read_txn c d.e (fun txn ->
                    span "query" "Engine.count_where" (fun () ->
                        Engine.count_where d.e txn table
                          [ ("key", Pred.Between (Value.Int lo, Value.Int hi)) ])))
          in
          sample c "query_ms" (ms dt);
          c.attempted <- c.attempted + 1;
          if n <> !expect then violation c "ycsb count_where disagrees with the model"
        done;
        let r, dt =
          timed (fun () ->
              read_txn c d.e (fun txn ->
                  span "query" "Engine.aggregate" (fun () ->
                      Engine.aggregate d.e txn table ~specs:[ Query.Aggregate.Count ] ())))
        in
        sample c "query_ms" (ms dt);
        c.attempted <- c.attempted + 1;
        match r.groups with
        | [ (None, [| Query.Aggregate.Num n |]) ]
          when int_of_float n = Hashtbl.length d.model -> ()
        | _ -> violation c "ycsb aggregate count disagrees with the model")

  (* After a crash: the recovered table must equal the model with some
     suffix of the unflushed commits undone. Returns how many
     acknowledged commits were lost, and resets the model to what
     survived. *)
  let reconcile c d =
    d.recovering <- false;
    let db = snapshot d.e in
    let pending = d.pending in
    (* undo newest-first: candidate k = commits still applied *)
    let state = Hashtbl.copy d.model in
    let touched = Hashtbl.create 64 in
    List.iter (List.iter (fun w -> Hashtbl.replace touched w.key ())) pending;
    let others_ok =
      Hashtbl.fold
        (fun k f ok -> ok && (Hashtbl.mem touched k || Hashtbl.find_opt db k = Some f))
        d.model true
      && Hashtbl.fold (fun k _ ok -> ok && (Hashtbl.mem touched k || Hashtbl.mem d.model k)) db true
    in
    let matches () =
      Hashtbl.fold (fun k () ok -> ok && Hashtbl.find_opt db k = Hashtbl.find_opt state k) touched true
    in
    let rec find lost = function
      | _ when matches () -> Some lost
      | [] -> None
      | commit :: older ->
          List.iter
            (fun w ->
              match w.before with
              | Some f -> Hashtbl.replace state w.key f
              | None -> Hashtbl.remove state w.key)
            (List.rev commit);
          find (lost + 1) older
    in
    match (others_ok, find 0 pending) with
    | true, Some lost ->
        Hashtbl.reset d.model;
        Hashtbl.iter (Hashtbl.replace d.model) state;
        d.keys <- Hashtbl.fold (fun k _ acc -> max k acc) d.model 0;
        d.pending <- [];
        lost
    | _ ->
        violation c "recovered state is not a prefix of the acknowledged commits";
        Hashtbl.reset d.model;
        Hashtbl.iter (Hashtbl.replace d.model) db;
        d.keys <- Hashtbl.fold (fun k _ acc -> max k acc) d.model 0;
        d.pending <- [];
        0

  let rebind d e =
    d.e <- e;
    d.flushes <- Engine.log_flushes e;
    d.log_mark <- Engine.log_bytes e

  (* A checkpoint makes every acknowledged commit durable and starts a
     new log. *)
  let checkpoint c d =
    note_commit c d [];
    ignore (checkpoint c d.e);
    d.pending <- [];
    rebind d d.e
end

(* ------------------------------------------------------------------ *)
(* Restart timing                                                      *)
(* ------------------------------------------------------------------ *)

(* Crash [e] and recover it. The restart clock runs from the crash to the
   recovery call's return; [between] (media damage while the power is
   off) runs untimed. Returns the recovered engine and the restart clock,
   which the caller reads again at the first query and at full health. *)
let crash_recover c e ?(between = fun (_ : Region.t) -> ()) ?verify () =
  let region = Engine.region e in
  let crashed, dt_crash =
    timed (fun () -> span "core" "Engine.crash" (fun () -> Engine.crash e Region.Drop_unfenced))
  in
  between region;
  let t1 = now_s () in
  let e2, rs = span "core" "Engine.recover" (fun () -> Engine.recover ?verify crashed) in
  let clock () = dt_crash +. (now_s () -. t1) in
  sample c "restart_ms" (ms (clock ()));
  record_recovery c rs;
  pin e2;
  (e2, rs, clock)

(* The first point read after a restart closes first_query_ms; the
   restore map is then drained (a no-op unless media faults landed),
   closing full_health_ms. *)
let first_read c ~clock read =
  let dt = read () in
  sample c "first_query_ms" (ms (clock ()));
  dt

let full_health c e ~clock ~reads =
  drain_restore c e ~reads;
  sample c "full_health_ms" (ms (clock ()))

(* [n] point reads at full health; the first read's excess over their
   median is the lazy first-touch cost (index build, cold lines). *)
let later_reads c ~first n read =
  let rest = samples () in
  for _ = 1 to n do
    let dt = read () in
    add rest dt;
    sample c "read_us" (us dt)
  done;
  sample c "pstruct.first_touch_ms" (ms (first -. median rest))

(* Logical bytes of the live rows: 8 per number, the length of a text. *)
let live_bytes e =
  let bytes = ref 0 and rows = ref 0 in
  Engine.with_txn e (fun txn ->
      List.iter
        (fun name ->
          Engine.scan e txn name (fun _ values ->
              incr rows;
              Array.iter
                (function
                  | Value.Text s -> bytes := !bytes + String.length s
                  | Value.Int _ | Value.Float _ -> bytes := !bytes + 8)
                values))
        (Engine.table_names e));
  (!bytes, !rows)

(* Space ledger at the end of the fixed schedule: NVM bytes held per row;
   returns the logical bytes of the live data. *)
let space c e =
  let bytes, rows = live_bytes e in
  count c "storage.data_bytes" (float_of_int (Engine.data_bytes e));
  count c "storage.rows" (float_of_int rows);
  bytes

(* NVM workloads: bytes held per logical byte of live data. *)
let nvm_space c e =
  c.user_bytes <- space c e;
  c.stored_bytes <- Engine.data_bytes e

(* ------------------------------------------------------------------ *)
(* tpcc-nvm                                                            *)
(* ------------------------------------------------------------------ *)

module Tpcc = Workload.Tpcc_lite

let tw, td, tc = (4, 10, 30)
let tpcc_burst = 800
let tpcc_queries = 10
let tpcc_reads = 200

type tpcc = { mutable te : Engine.t; mutable tt : Tpcc.t; mutable acked_orders : int }

let tpcc_setup c rng =
  let e = Engine.create (Engine.default_config ~size:(64 * mib) Engine.Nvm) in
  pin e;
  let t = Tpcc.setup e ~warehouses:tw ~districts_per_wh:td ~customers_per_district:tc in
  let st = Tpcc.run t rng ~ops:tpcc_burst () in
  if st.aborted > 0 then violation c "tpcc warm-up aborted";
  { te = e; tt = t; acked_orders = st.new_orders }

let customer_read c e rng =
  let w = Prng.int_in rng 1 tw and d = Prng.int_in rng 1 td and cu = Prng.int_in rng 1 tc in
  let key = (((w * 1_000) + d) * 10_000) + cu in
  let rows, dt = timed (fun () -> read_txn c e (fun txn -> lookup c e txn "customer" ~col:"c_key" key)) in
  c.attempted <- c.attempted + 1;
  (match rows with
  | [ (_, values) ] when values.(0) = Value.Int key -> ()
  | _ -> violation c (Printf.sprintf "customer %d read wrong" key));
  dt

(* district_revenue answers from the index; the oracle re-derives them
   with a filtered aggregate scan. *)
let district_query c s rng =
  let w = Prng.int_in rng 1 tw and d = Prng.int_in rng 1 td in
  let got, dt =
    timed (fun () ->
        span "workload" "Tpcc_lite.district_revenue" (fun () ->
            Tpcc.district_revenue s.tt ~w_id:w ~d_id:d))
  in
  sample c "query_ms" (ms dt);
  c.attempted <- c.attempted + 1;
  c.committed <- c.committed + 1;
  let r =
    Engine.with_txn s.te (fun txn ->
        Engine.aggregate s.te txn "orders" ~specs:[ Query.Aggregate.Sum "o_amount" ]
          ~filters:[ ("o_d_key", Pred.Cmp (Pred.Eq, Value.Int ((w * 1_000) + d))) ]
          ())
  in
  let expect =
    match r.groups with [ (None, [| Query.Aggregate.Num x |]) ] -> int_of_float x | _ -> 0
  in
  if got <> expect then violation c "district_revenue disagrees with the scan"

let tpcc_cycle c s rng i =
  set_op i;
  let region = Engine.region s.te in
  c.txns <- c.txns + tpcc_burst;
  traffic c region ~ops:tpcc_burst (fun () ->
      for _ = 1 to tpcc_burst do
        let st, dt =
          timed (fun () -> span "workload" "Tpcc_lite.run" (fun () -> Tpcc.run s.tt rng ~ops:1 ()))
        in
        sample c "txn_us" (us dt);
        c.attempted <- c.attempted + 1;
        c.committed <- c.committed + st.committed;
        s.acked_orders <- s.acked_orders + st.new_orders;
        if st.aborted > 0 then violation c "tpcc transaction aborted"
      done);
  traffic c region ~ops:(tpcc_queries + tpcc_reads) (fun () ->
      for _ = 1 to tpcc_queries do
        district_query c s rng
      done;
      for _ = 1 to tpcc_reads do
        sample c "read_us" (us (customer_read c s.te rng))
      done);
  (* The previous cycle's in-flight order must stay invisible. Its
     delta-index entries survive the rollback, so once this burst reuses
     its row ids the lookup returns a stranger's row: counted as a failed
     read, not hidden (README: stale index after rollback). *)
  if i > 1 then begin
    let rows = read_txn c s.te (fun txn -> lookup c s.te txn "orders" ~col:"o_id" (-(i - 1))) in
    c.attempted <- c.attempted + 1;
    if rows <> [] then begin
      c.failed <- c.failed + 1;
      count c "core.stale_rolled_back_reads" 1.0
    end
  end;
  (* one new-order in flight at the crash, under an order id and customer
     key the traffic never uses *)
  let txn = Engine.begin_txn s.te in
  ignore
    (Engine.insert s.te txn "orders"
       [| Value.Int (-i); Value.Int 0; Value.Int 0; Value.Int 0; Value.Int 0; Value.Int 0 |]);
  ignore (Engine.insert s.te txn "order_line" [| Value.Int (-i); Value.Int 1; Value.Text "x"; Value.Int 0 |]);
  let e, _, clock = crash_recover c s.te () in
  let read () = customer_read c e rng in
  let first = first_read c ~clock read in
  full_health c e ~clock ~reads:ignore;
  later_reads c ~first 5 read;
  s.te <- e;
  s.tt <- Tpcc.attach e ~warehouses:tw ~districts_per_wh:td ~customers_per_district:tc;
  List.iter
    (fun (what, ok) -> if not ok then violation c ("tpcc after restart: " ^ what))
    (Tpcc.consistency_check s.tt);
  let orders = Tpcc.total_orders s.tt in
  if orders <> s.acked_orders then begin
    violation c
      (Printf.sprintf "tpcc: %d orders after restart, %d acknowledged" orders s.acked_orders);
    c.failed <- c.failed + abs (s.acked_orders - orders);
    s.acked_orders <- orders
  end

(* ------------------------------------------------------------------ *)
(* ycsb-log                                                            *)
(* ------------------------------------------------------------------ *)

let ycsb_burst = 300

let ycsb_log_setup c rng =
  let dir = log_config c "ycsb-log" in
  let e = Engine.create (Engine.default_config ~size:(64 * mib) (Engine.Logging dir)) in
  pin e;
  ignore (Workload.Ycsb.setup e rng Ycsb_client.cfg);
  ignore (Engine.checkpoint e);
  let d = Ycsb_client.attach e in
  Ycsb_client.burst c d rng ~ops:ycsb_burst;
  d

let ycsb_log_cycle c d rng i =
  set_op i;
  Ycsb_client.burst c d rng ~ops:ycsb_burst;
  Ycsb_client.checkpoint c d;
  Ycsb_client.burst c d rng ~ops:ycsb_burst;
  Ycsb_client.queries c d rng;
  let e, _, clock = crash_recover c d.e () in
  Ycsb_client.rebind d e;
  d.recovering <- true;
  let read () = Ycsb_client.read c d (1 + Prng.Zipf.draw d.zipf rng) in
  let first = first_read c ~clock read in
  full_health c e ~clock ~reads:ignore;
  later_reads c ~first 5 read;
  let lost = Ycsb_client.reconcile c d in
  count c "wal.acked_lost" (float_of_int lost);
  count c "wal.crashes" 1.0;
  c.failed <- c.failed + lost

(* ------------------------------------------------------------------ *)
(* restore-faults                                                      *)
(* ------------------------------------------------------------------ *)

let rf_tail = 200
let rf_faults = 8
let rf_rows = 5_000
let rf_batch = 8
let rf_reads = 40

let restore_faults_setup c rng =
  let archive = { (log_config c "restore-faults") with group_commit_size = 1 } in
  let e = Engine.create (Engine.default_config ~size:(64 * mib) ~salvage:archive Engine.Nvm) in
  pin e;
  ignore (Workload.Ycsb.setup e rng { Ycsb_client.cfg with rows = rf_rows });
  let d = Ycsb_client.attach e in
  Ycsb_client.burst c d rng ~ops:rf_tail;
  d

let ycsb_checksum e = Workload.Ycsb.checksum (Workload.Ycsb.attach e Ycsb_client.cfg)

(* Point read by physical row id: the read that restores one segment on
   demand (an indexed lookup gates the whole table). *)
let row_read c d ~rows rng =
  let row = Prng.int rng rows in
  let r, dt =
    timed (fun () ->
        read_txn c d.Ycsb_client.e (fun txn ->
            span "query" "Engine.get_row" (fun () ->
                Engine.get_row d.Ycsb_client.e txn Ycsb_client.table row)))
  in
  c.attempted <- c.attempted + 1;
  (match r with
  | None -> ()
  | Some values -> (
      match values.(0) with
      | Value.Int k when Hashtbl.find_opt d.model k = Some (Ycsb_client.fields_of values) -> ()
      | _ -> violation c (Printf.sprintf "row %d read wrong after restore" row)));
  dt

let restore_faults_cycle c d rng i =
  set_op i;
  Ycsb_client.checkpoint c d;
  Ycsb_client.burst c d rng ~ops:rf_tail;
  let e0 = d.e in
  let rows = Storage.Table.main_rows (Engine.table e0 Ycsb_client.table) in
  let target = fault_targets e0 Ycsb_client.table in
  let before = ycsb_checksum e0 in
  (* the damage schedule is part of the workload, not of the input: the
     same offsets every run, so the seed moves only data and traffic *)
  let frng = Prng.create (Int64.of_int (1_000_003 * i)) in
  let inject region =
    for k = 0 to rf_faults - 1 do
      let lo, hi = target frng k in
      Region.inject_fault region frng (Region.random_fault region frng ~lo ~hi)
    done;
    Region.clear_stuck region
  in
  let e, rs, clock = crash_recover c e0 ~between:inject ~verify:`Deep () in
  Ycsb_client.rebind d e;
  (match rs.detail with
  | Engine.Rv_nvm { deferred; _ } ->
      count c "core.restore_segments"
        (float_of_int (List.fold_left (fun a (_, s) -> a + max 1 (List.length s)) 0 deferred))
  | _ -> ());
  let d0 = par_counter "media.segment.demand" and b0 = par_counter "media.segment.background" in
  let read () = row_read c d ~rows rng in
  let first = first_read c ~clock read in
  full_health c e ~clock ~reads:(fun () ->
      for _ = 1 to rf_batch do
        sample c "read_us" (us (read ()))
      done);
  count c "core.restore_demand" (float_of_int (par_counter "media.segment.demand" - d0));
  count c "core.restore_background" (float_of_int (par_counter "media.segment.background" - b0));
  traffic c (Engine.region e) ~ops:rf_reads (fun () -> later_reads c ~first rf_reads read);
  Ycsb_client.queries c d rng;
  if ycsb_checksum e <> before then violation c "rows after full health differ from before the crash";
  ignore (Ycsb_client.reconcile c d)

(* ------------------------------------------------------------------ *)
(* restart-analytics                                                   *)
(* ------------------------------------------------------------------ *)

let ra_rows = 20_000
let ra_delta = 2_000
let ra_reads = 60
let ra_table = "facts"
let ra_sels = [ 1; 10; 100; 900 ] (* rows per mille *)

type analytics = {
  image : string;
  cfg : Engine.config;
  a : int array;  (** key k = i + 1 → column values *)
  g : int array;
  v : int array;
  scans : int list;  (** expected count_where per selectivity *)
  groups : (int * int * int) list;  (** group, count, sum *)
}

let ra_schema =
  Storage.Schema.
    [|
      column ~indexed:true "k" Value.Int_t;
      column "a" Value.Int_t;
      column "g" Value.Int_t;
      column "v" Value.Int_t;
    |]

let ra_scan e txn sel =
  Engine.count_where e txn ra_table [ ("a", Pred.Between (Value.Int 0, Value.Int (sel - 1))) ]

let ra_aggregate e txn =
  let r =
    Engine.aggregate e txn ra_table ~group_by:"g"
      ~specs:[ Query.Aggregate.Count; Query.Aggregate.Sum "v" ] ()
  in
  List.map
    (function
      | Some (Value.Int g), [| Query.Aggregate.Num n; Query.Aggregate.Num s |] ->
          (g, int_of_float n, int_of_float s)
      | _ -> (-1, 0, 0))
    r.groups

let restart_analytics_setup c rng =
  let n = ra_rows + ra_delta in
  let a = Array.init n (fun _ -> Prng.int rng 1000) in
  let g = Array.init n (fun _ -> Prng.int rng 16) in
  let v = Array.init n (fun _ -> Prng.int rng 100_000) in
  let cfg = Engine.default_config ~size:(64 * mib) Engine.Nvm in
  let e = Engine.create cfg in
  pin e;
  Engine.create_table e ~name:ra_table ra_schema;
  let insert lo hi =
    let i = ref lo in
    while !i < hi do
      let stop = min hi (!i + 2_000) in
      Engine.with_txn e (fun txn ->
          for j = !i to stop - 1 do
            ignore
              (Engine.insert e txn ra_table
                 [| Value.Int (j + 1); Value.Int a.(j); Value.Int g.(j); Value.Int v.(j) |])
          done);
      i := stop
    done
  in
  insert 0 ra_rows;
  ignore (Engine.merge e ra_table);
  insert ra_rows n;
  let scans =
    List.map (fun sel -> Array.fold_left (fun acc x -> if x < sel then acc + 1 else acc) 0 a) ra_sels
  in
  let groups =
    List.init 16 (fun grp ->
        let cnt = ref 0 and sum = ref 0 in
        Array.iteri
          (fun j x ->
            if x = grp then begin
              incr cnt;
              sum := !sum + v.(j)
            end)
          g;
        (grp, !cnt, !sum))
    |> List.filter (fun (_, cnt, _) -> cnt > 0)
  in
  Engine.with_txn e (fun txn ->
      if List.map (ra_scan e txn) ra_sels <> scans || ra_aggregate e txn <> groups then
        violation c "analytics answers before saving the image disagree with the data");
  let image = Filename.concat c.work "analytics.img" in
  Engine.save_image e image;
  { image; cfg; a; g; v; scans; groups }

let ra_read c e s rng =
  let j = if Prng.int rng 20 = 0 then ra_rows + Prng.int rng ra_delta else Prng.int rng ra_rows in
  let rows, dt = timed (fun () -> read_txn c e (fun txn -> lookup c e txn ra_table ~col:"k" (j + 1))) in
  c.attempted <- c.attempted + 1;
  (match rows with
  | [ (_, [| Value.Int k; Value.Int a; Value.Int g; Value.Int v |]) ]
    when k = j + 1 && a = s.a.(j) && g = s.g.(j) && v = s.v.(j) -> ()
  | _ -> violation c (Printf.sprintf "analytics read of key %d wrong" (j + 1)));
  dt

let restart_analytics_cycle c s rng i =
  set_op i;
  if c.ledger then begin
    let _, dt =
      timed (fun () ->
          span "nvm" "Region.load_from_file" (fun () ->
              Region.load_from_file s.cfg.Engine.region s.image))
    in
    sample c "nvm.image_load_ms" (ms dt)
  end;
  let t0 = now_s () in
  let e, rs = span "core" "Engine.open_image" (fun () -> Engine.open_image s.cfg s.image) in
  let clock () = now_s () -. t0 in
  sample c "restart_ms" (ms (clock ()));
  record_recovery c rs;
  pin e;
  let read () =
    let dt = ra_read c e s rng in
    sample c "txn_us" (us dt);
    dt
  in
  let first = first_read c ~clock read in
  full_health c e ~clock ~reads:ignore;
  let region = Engine.region e in
  let queries = List.length ra_sels + 1 in
  traffic c region ~ops:(queries + ra_reads) (fun () ->
      List.iteri
        (fun qi sel ->
          let got, dt =
            timed (fun () ->
                read_txn c e (fun txn -> span "query" "Engine.count_where" (fun () -> ra_scan e txn sel)))
          in
          sample c "query_ms" (ms dt);
          sample c "txn_us" (us dt);
          sample c (Printf.sprintf "query.scan_ms.sel_%04d" sel) (ms dt);
          c.attempted <- c.attempted + 1;
          if got <> List.nth s.scans qi then violation c "count_where answer changed across restart")
        ra_sels;
      let got, dt =
        timed (fun () ->
            read_txn c e (fun txn -> span "query" "Engine.aggregate" (fun () -> ra_aggregate e txn)))
      in
      sample c "query_ms" (ms dt);
      sample c "txn_us" (us dt);
      sample c "query.aggregate_ms" (ms dt);
      c.attempted <- c.attempted + 1;
      if got <> s.groups then violation c "aggregate answer changed across restart";
      later_reads c ~first ra_reads read)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

type workload = {
  wname : string;
  cycles_per_s : float;  (** work per [--seconds], fixed so runs repeat *)
  run : ctx -> cycles:int -> reps:int -> float list;
      (** set up [reps] times (returning each set-up time), then run the
          cycles on the last set-up *)
}

let reset_ledgers c =
  Hashtbl.reset c.samples;
  Hashtbl.reset c.counts;
  c.committed <- 0;
  c.traffic_s <- 0.0;
  c.ops <- 0;
  c.txns <- 0;
  c.user_bytes <- 0;
  c.stored_bytes <- 0

(* Set up [reps] times from the same seed, then run the cycles on the
   last instance with the ledgers cleared of warm-up traffic. *)
let runner setup cycle finish c ~cycles ~reps =
  let times = ref [] and st = ref None in
  for _ = 1 to reps do
    st := None;
    Gc.full_major ();
    let rng = Prng.create (Int64.of_int c.seed) in
    let s, dt = timed (fun () -> setup c rng) in
    times := dt :: !times;
    st := Some (s, rng)
  done;
  let s, rng = Option.get !st in
  reset_ledgers c;
  for i = 1 to cycles do
    (* the previous cycle's garbage (regions of dead engines included)
       is collected outside the timed phases *)
    Gc.full_major ();
    cycle c s rng i
  done;
  Gc.full_major ();
  finish c s;
  List.rev !times

let workloads =
  [
    {
      wname = "tpcc-nvm";
      cycles_per_s = 3.0;
      run = runner tpcc_setup tpcc_cycle (fun c s -> nvm_space c s.te);
    };
    {
      wname = "ycsb-log";
      cycles_per_s = 3.0;
      run =
        runner ycsb_log_setup ycsb_log_cycle (fun c d ->
            ignore (space c d.Ycsb_client.e);
            c.stored_bytes <- int_of_float (get_count c "wal.bytes"));
    };
    {
      wname = "restart-analytics";
      cycles_per_s = 6.0;
      run =
        runner restart_analytics_setup restart_analytics_cycle (fun c s ->
            nvm_space c (fst (Engine.open_image s.cfg s.image)));
    };
    {
      wname = "restore-faults";
      cycles_per_s = 3.0;
      run = runner restore_faults_setup restore_faults_cycle (fun c d -> nvm_space c d.Ycsb_client.e);
    };
  ]

let new_ctx ~work ~seed ~ledger =
  {
    work;
    seed;
    ledger;
    samples = Hashtbl.create 64;
    counts = Hashtbl.create 64;
    attempted = 0;
    failed = 0;
    violations = [];
    committed = 0;
    traffic_s = 0.0;
    ops = 0;
    txns = 0;
    user_bytes = 0;
    stored_bytes = 0;
  }

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Percentile metric with its sample count noted beside it. *)
let pct c name key p unit_ =
  let s = get_samples c key in
  let value, beyond = percentile s p in
  let note = Printf.sprintf "p%g of n=%d, %d beyond" (p *. 100.) s.n beyond in
  { mname = name; unit_; value; note = (if beyond < 10 then note ^ "; TOO FEW" else note) }

let plain name value unit_ note = { mname = name; unit_; value; note }

let end_to_end c setup =
  let setup_s = samples () in
  List.iter (add setup_s) setup;
  [
    plain "setup_s" (median setup_s) "s" (Printf.sprintf "median of %d set-ups" setup_s.n);
    plain "txn_per_s" (ratio (float_of_int c.committed) c.traffic_s) "1/s"
      (Printf.sprintf "%d committed in %.3f s of traffic" c.committed c.traffic_s);
    pct c "txn_p50_us" "txn_us" 0.5 "us";
    pct c "txn_p99_us" "txn_us" 0.99 "us";
    pct c "read_p50_us" "read_us" 0.5 "us";
    pct c "read_p99_us" "read_us" 0.99 "us";
    pct c "query_p50_ms" "query_ms" 0.5 "ms";
    pct c "query_p90_ms" "query_ms" 0.9 "ms";
    pct c "restart_ms" "restart_ms" 0.5 "ms";
    pct c "first_query_ms" "first_query_ms" 0.5 "ms";
    pct c "full_health_ms" "full_health_ms" 0.5 "ms";
    plain "bytes_per_user_byte"
      (ratio (float_of_int c.stored_bytes) (float_of_int c.user_bytes))
      "ratio"
      (Printf.sprintf "%d stored / %d user bytes" c.stored_bytes c.user_bytes);
    plain "peak_rss_mb" (peak_rss_mb ()) "MB" "VmHWM";
  ]

(* Per-layer numbers of a traced run. Counts repeat exactly for a seed;
   the times that only some workloads exercise are printed as text. *)
let per_layer c ~overhead_pct =
  let k = get_count c in
  let ops = float_of_int c.ops and txns = float_of_int c.txns in
  let med name = median (get_samples c name) in
  let m name unit_ v = plain name v unit_ "per-layer" in
  let metrics =
    [
      m "nvm.loads_per_op" "count" (ratio (k "nvm.loads") ops);
      m "nvm.stores_per_op" "count" (ratio (k "nvm.stores") ops);
      m "nvm.writebacks_per_txn" "count" (ratio (k "nvm.writebacks") txns);
      m "nvm.fences_per_txn" "count" (ratio (k "nvm.fences") txns);
      m "nvm.elided_fences_per_txn" "count" (ratio (k "nvm.elided_fences") txns);
      m "nvm.modeled_device_ns_per_op" "model_ns" (ratio (k "nvm.sim_ns") ops);
      m "nvm_alloc.heap_blocks" "count" (ratio (k "nvm_alloc.heap_blocks") (k "core.restarts"));
      m "core.rolled_back_rows" "count" (k "core.rolled_back_rows");
      m "core.restore_segments" "count" (k "core.restore_segments");
      m "core.restore_demand" "count" (k "core.restore_demand");
      m "core.restore_background" "count" (k "core.restore_background");
      m "core.stale_rolled_back_reads" "count" (k "core.stale_rolled_back_reads");
      m "txn.commit_us" "us" (med "txn.commit_us");
      m "pstruct.first_touch_ms" "ms" (med "pstruct.first_touch_ms");
      m "storage.data_bytes_per_row" "B/row" (ratio (k "storage.data_bytes") (k "storage.rows"));
      m "wal.bytes_per_txn" "B/txn" (ratio (k "wal.bytes") txns);
      m "wal.flushes_per_txn" "count" (ratio (k "wal.flushes") txns);
      m "wal.acked_lost_per_crash" "count" (ratio (k "wal.acked_lost") (k "wal.crashes"));
      m "par.tasks" "count" (k "par.tasks");
      m "par.steal_waits" "count" (k "par.steal_waits");
      m "gc.minor_words_per_op" "words" (ratio (k "gc.minor_words") ops);
      m "gc.minor_collections_per_op" "count" (ratio (k "gc.minor_collections") ops);
      m "gc.major_collections" "count" (k "gc.major_collections");
      m "trace.spans" "count" (float_of_int !nspans);
      m "trace.overhead_pct" "%" overhead_pct;
    ]
  in
  (* workload-specific layer times: median (n) of every sample set *)
  Hashtbl.fold (fun name s acc -> (name, s) :: acc) c.samples []
  |> List.sort compare
  |> List.iter (fun (name, s) ->
         if String.contains name '.' then
           Printf.printf "layer %-28s median %12.4f  (n=%d)\n" name (median s) s.n);
  Printf.printf "layer %-28s %12.4f ms\n" "par.worker_busy_ms" (k "par.busy_ns" /. 1e6);
  List.iter
    (fun (layer, self, n) ->
      Printf.printf "self  %-28s %12.4f ms over %d spans\n" layer (self *. 1e3) n)
    (layer_report ());
  metrics

let print_metric m = Printf.printf "metric %-28s %14.4f %-8s (%s)\n" m.mname m.value m.unit_ m.note

(* Exact counts a single-client run must repeat for a seed. *)
let print_counts c =
  let keys =
    [ "nvm.loads"; "nvm.stores"; "nvm.writebacks"; "nvm.fences"; "wal.bytes"; "wal.flushes";
      "core.rolled_back_rows"; "core.restore_segments" ]
  in
  Printf.printf "COUNTS attempted=%d %s\n" c.attempted
    (String.concat " " (List.map (fun k -> Printf.sprintf "%s=%.0f" k (get_count c k)) keys))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let work = ref ".bench_build/perfbench-work" and spans = ref "" and cycles = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length (sets the fixed amount of work)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--work", Arg.Set_string work, "DIR scratch directory for images and logs");
      ("--spans", Arg.Set_string spans, "FILE where a traced run writes its spans");
      ("--cycles", Arg.Set_int cycles, "N override the cycle count (tests)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.wname = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  Par.set_jobs jobs;
  let rec mkdir d =
    if not (Sys.file_exists d) then begin
      mkdir (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  let work = Filename.concat !work (Printf.sprintf "%s-%d" w.wname (Unix.getpid ())) in
  mkdir work;
  let ncycles =
    if !cycles > 0 then !cycles
    else max 30 (int_of_float (Float.round (w.cycles_per_s *. float_of_int !seconds)))
  in
  Printf.printf
    "config workload=%s seed=%d cycles=%d clients=1 jobs=%d writers=%d log_policy=%s \
     log_flush=group-%d fsync=%b trace=%d\n%!"
    w.wname !seed ncycles (Par.jobs ()) writers
    (Engine.log_policy_name log_policy)
    group_commit log_fsync !trace;
  let run ~traced ~reps =
    let c = new_ctx ~work ~seed:!seed ~ledger:(!trace = 1) in
    tracing := traced;
    let (setup, wall) = timed (fun () -> w.run c ~cycles:ncycles ~reps) in
    tracing := false;
    (c, setup, wall -. List.fold_left ( +. ) 0.0 setup)
  in
  let c, metrics =
    if !trace = 0 then begin
      let c, setup, _ = run ~traced:false ~reps:setup_reps in
      (c, end_to_end c setup)
    end
    else begin
      let _, _, plain_wall = run ~traced:false ~reps:1 in
      let c, _, traced_wall = run ~traced:true ~reps:1 in
      let overhead = 100.0 *. (traced_wall -. plain_wall) /. plain_wall in
      Printf.printf "trace overhead: %.2f%% (cycles %.3f s traced vs %.3f s untraced)\n" overhead
        traced_wall plain_wall;
      let path = if !spans = "" then Filename.concat work "spans.tsv" else !spans in
      write_spans path;
      Printf.printf "spans: %d written to %s\n" !nspans path;
      (c, per_layer c ~overhead_pct:overhead)
    end
  in
  List.iter print_metric metrics;
  print_counts c;
  List.iter (fun v -> Printf.printf "violation: %s\n" v) (List.rev c.violations);
  print_endline
    (result_line ~correct:(c.violations = []) ~attempted:c.attempted ~failed:c.failed metrics)
