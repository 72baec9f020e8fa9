(* Sharded PREP-UC: router correctness, cross-shard transaction
   atomicity, and the crash-fuzz campaigns of the sharded construction.
   All budgets are deterministic counts under fixed seeds. *)

open Prep

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module H = Seqds.Hashmap
module S = Sharded_uc.Make (Seqds.Hashmap)
module FS = Check.Fuzz.Make (Check.Sut.Sharded_uc (Seqds.Hashmap))
module ES = Check.Explore.Make (Check.Sut.Sharded_uc (Seqds.Hashmap))

(* the sharded construction the checkers drive (sharding is durable-only) *)
let shard_cfg ?(fault = Config.No_fault) ?(epsilon = 16) ?(log_size = 256)
    nshards =
  Config.make ~mode:Config.Durable ~log_size ~epsilon ~shards:nshards ~fault
    ~workers:1 ()

let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 }

(* Run [ops] (a per-worker list of (op, args)) over [nshards] shards with
   [workers] workers; return the merged final snapshot. *)
let run_sharded ?(fault = Config.No_fault) ~nshards ~workers ops =
  let sim = Sim.create ~seed:11L topology in
  let mem = Nvm.Memory.make ~seed:12L ~sockets:2 () in
  let snap = ref [] in
  let uc_out = ref None in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         let roots = Nvm.Roots.make mem in
         let cfg =
           Config.make ~mode:Config.Durable ~log_size:256 ~epsilon:16
             ~shards:nshards ~fault ~workers ()
         in
         let uc = S.create mem roots cfg in
         uc_out := Some uc;
         S.start_persistence uc;
         let done_count = ref 0 in
         for w = 0 to workers - 1 do
           let socket, core = Sim.Topology.place topology w in
           Sim.spawn_here ~socket ~core (fun () ->
               S.register_worker uc;
               List.iter
                 (fun (op, args) -> ignore (S.execute uc ~op ~args))
                 ops;
               incr done_count)
         done;
         while !done_count < workers do
           Sim.tick 10_000
         done;
         S.stop uc;
         S.sync uc;
         snap := S.snapshot uc));
  (match Sim.run sim () with `Done -> () | `Cut _ -> assert false);
  (Option.get !uc_out, !snap)

(* ---- router ---- *)

let test_route_partition () =
  (* every key owned by exactly one shard, all shards populated *)
  let nshards = 4 in
  let seen = Array.make nshards 0 in
  for k = 0 to 9999 do
    let s = Sharded_uc.route_key ~nshards k in
    check_bool "shard in range" true (s >= 0 && s < nshards);
    seen.(s) <- seen.(s) + 1
  done;
  Array.iteri
    (fun i n ->
      check_bool (Printf.sprintf "shard %d gets a fair share" i) true
        (n > 1500))
    seen

(* ---- sequential equivalence across shard counts ---- *)

let test_shard_count_invariance () =
  (* one worker = a sequential history: the merged final state must be
     identical whatever the shard count *)
  let rng = Sim.Rng.create 77L in
  let ops =
    List.init 300 (fun _ ->
        let k = Sim.Rng.int rng 512 in
        match Sim.Rng.int rng 10 with
        | 0 | 1 | 2 ->
          (Sharded_uc.op_multi_put, [| k; Sim.Rng.int rng 512; k + 1 |])
        | 3 | 4 ->
          (Sharded_uc.op_transfer, [| k; Sim.Rng.int rng 512; 3 |])
        | 5 | 6 | 7 -> (H.op_insert, [| k; k * 2 |])
        | 8 -> (H.op_remove, [| k |])
        | _ -> (H.op_get, [| k |]))
  in
  let _, s1 = run_sharded ~nshards:1 ~workers:1 ops in
  let _, s2 = run_sharded ~nshards:2 ~workers:1 ops in
  let _, s4 = run_sharded ~nshards:4 ~workers:1 ops in
  check_bool "snapshot non-trivial" true (List.length s1 > 10);
  Alcotest.(check (list int)) "1 shard = 2 shards" s1 s2;
  Alcotest.(check (list int)) "1 shard = 4 shards" s1 s4

let test_multi_put_and_transfer () =
  let ops =
    [
      (H.op_insert, [| 1; 100 |]);
      (H.op_insert, [| 2; 50 |]);
      (Sharded_uc.op_transfer, [| 1; 2; 30 |]);
      (* both keys set to one value, across whatever shards own them *)
      (Sharded_uc.op_multi_put, [| 10; 11; 7 |]);
      (* transfer with an absent destination: delta lands as the value *)
      (Sharded_uc.op_transfer, [| 2; 20; 5 |]);
    ]
  in
  let uc, snap = run_sharded ~nshards:4 ~workers:1 ops in
  let assoc k = List.assoc k (List.combine (List.filteri (fun i _ -> i mod 2 = 0) snap) (List.filteri (fun i _ -> i mod 2 = 1) snap)) in
  check "transfer debits" 70 (assoc 1);
  check "transfer credits then debits" 75 (assoc 2);
  check "multi_put first key" 7 (assoc 10);
  check "multi_put second key" 7 (assoc 11);
  check "transfer into absent key" 5 (assoc 20);
  (* every transaction decided at quiescence *)
  Hashtbl.iter
    (fun txid _ ->
      check_bool "txn committed" true (S.committed uc txid))
    uc.S.txn_intent

(* ---- decision table ---- *)

let test_decision_table_chunks () =
  (* capacity spanning several chunks: slots land in the right chunk and
     survive a crash *)
  let sim = Sim.create ~seed:5L topology in
  let mem = Nvm.Memory.make ~seed:6L ~sockets:2 () in
  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         let roots = Nvm.Roots.make mem in
         let d = Sharded_uc.Decision.create mem roots ~cap:100_000 in
         let probes = [ 1; 2; 32767; 32768; 32769; 99_999; 100_007 ] in
         List.iter (fun txid -> Sharded_uc.Decision.commit d txid) probes;
         List.iter
           (fun txid ->
             check_bool "committed" true (Sharded_uc.Decision.committed d txid))
           probes;
         check_bool "uncommitted stays uncommitted" false
           (Sharded_uc.Decision.committed d 12345);
         Nvm.Memory.crash mem;
         let d' = Sharded_uc.Decision.attach mem roots in
         List.iter
           (fun txid ->
             check_bool "survives crash" true
               (Sharded_uc.Decision.committed_peek d' txid))
           probes;
         check_bool "uncommitted survives as uncommitted" false
           (Sharded_uc.Decision.committed_peek d' 12345)));
  match Sim.run sim () with `Done -> () | `Cut _ -> assert false

(* ---- crash fuzz campaigns ---- *)

let gen_sharded ~nshards ~multi_pct ~cross_pct =
  let w =
    Harness.Workload.map_workload_sharded ~read_pct:20 ~multi_pct ~cross_pct
      ~nshards ~key_range:128 ~prefill_n:0
  in
  fun rng -> w.Harness.Workload.next rng ~phase:0

let template ~seed ~ops =
  {
    Check.Fuzz.workload_seed = seed;
    threads = 6;
    ops_per_worker = ops;
    bg_period = 2000;
    preempt_prob = 0.02;
    crash = Check.Fuzz.No_crash;
  }

let no_failures label cfg (res : Check.Fuzz.result) =
  List.iter
    (fun { Check.Fuzz.episode; violations } ->
      Alcotest.failf "%s: %s failed: %s" label
        (Fmt.str "%a" (Check.Fuzz.pp_episode cfg) episode)
        (String.concat "; "
           (List.map Check.Durable_lin.violation_to_string violations)))
    res.Check.Fuzz.failures

let campaign ~seed ~nshards ~multi_pct ~cross_pct ~iters =
  let cfg = shard_cfg nshards in
  let res =
    FS.fuzz cfg
      ~gen_op:(gen_sharded ~nshards ~multi_pct ~cross_pct)
      ~template:(template ~seed ~ops:100) ~iters ()
  in
  (cfg, res)

let test_fuzz_single_key () =
  let cfg, res =
    campaign ~seed:8100 ~nshards:4 ~multi_pct:0 ~cross_pct:0 ~iters:8
  in
  no_failures "0% multi" cfg res;
  check_bool "crash points explored" true (res.Check.Fuzz.crashes > 0)

let test_fuzz_cross_10 () =
  let cfg, res =
    campaign ~seed:8200 ~nshards:4 ~multi_pct:10 ~cross_pct:100 ~iters:8
  in
  no_failures "10% multi, all cross" cfg res;
  check_bool "crash points explored" true (res.Check.Fuzz.crashes > 0)

let test_fuzz_cross_50 () =
  let cfg, res =
    campaign ~seed:8300 ~nshards:2 ~multi_pct:50 ~cross_pct:50 ~iters:8
  in
  no_failures "50% multi on 2 shards" cfg res;
  check_bool "crash points explored" true (res.Check.Fuzz.crashes > 0)

(* ---- the planted commit-ordering fault ---- *)

let test_fuzz_catches_planted_fault () =
  let nshards = 4 in
  let cfg = shard_cfg ~fault:Config.Commit_before_prepare_persist nshards in
  let gen_op = gen_sharded ~nshards ~multi_pct:40 ~cross_pct:100 in
  let res =
    FS.fuzz cfg ~gen_op ~template:(template ~seed:8400 ~ops:100) ~iters:20 ()
  in
  check_bool "planted commit-before-prepare fault caught" true
    (res.Check.Fuzz.failures <> []);
  (* every reported violation is the cross-shard atomicity kind *)
  let f = List.hd res.Check.Fuzz.failures in
  check_bool "violation names a partially-applied committed txn" true
    (List.exists
       (function
         | Check.Durable_lin.Atomicity_violation { committed = true; _ } ->
           true
         | _ -> false)
       f.Check.Fuzz.violations);
  (* and it shrinks to a smaller reproducible episode *)
  let small = FS.shrink cfg ~gen_op f.Check.Fuzz.episode in
  check_bool "shrunk episode still fails" true
    ((FS.run_episode cfg ~gen_op small).Check.Fuzz.violations <> []);
  check_bool "shrunk is no bigger" true
    (small.Check.Fuzz.threads <= f.Check.Fuzz.episode.Check.Fuzz.threads)

let test_fault_inert_without_multis () =
  (* with no multi-key ops there are no transactions, so the planted
     fault has nothing to break *)
  let cfg = shard_cfg ~fault:Config.Commit_before_prepare_persist 2 in
  let res =
    FS.fuzz cfg
      ~gen_op:(gen_sharded ~nshards:2 ~multi_pct:0 ~cross_pct:0)
      ~template:(template ~seed:8500 ~ops:100) ~iters:6 ()
  in
  no_failures "fault inert without transactions" cfg res

(* ---- bounded exhaustive exploration ---- *)

let explore_scope =
  {
    Check.Explore.seed = 3;
    threads = 2;
    ops_per_worker = 1;
    sockets = 2;
    cores_per_socket = 2;
    prune = true;
    (* the checkpoint fibers never quiesce, so they make this scope
       unbounded; 4 ops < epsilon-window wrap, so skipping them is sound
       (see [Explore.scope]) and the space exhausts *)
    persistence = false;
  }

let gen_explore rng =
  let k = Sim.Rng.int rng 8 in
  match Sim.Rng.int rng 4 with
  | 0 -> (Sharded_uc.op_multi_put, [| k; k + 1; 1 + Sim.Rng.int rng 9 |])
  | 1 -> (H.op_insert, [| k; Sim.Rng.int rng 100 |])
  | 2 -> (H.op_get, [| k |])
  | _ -> (Sharded_uc.op_transfer, [| k; k + 3; 1 |])

(* the explore scope's configuration: epsilon 2 over a 16-entry log *)
let explore_cfg ?fault () = shard_cfg ?fault ~epsilon:2 ~log_size:16 2

let test_explore_2shard_clean () =
  let res =
    ES.explore (explore_cfg ()) ~gen_op:gen_explore ~scope:explore_scope ()
  in
  (match res.Check.Explore.violation with
   | None -> ()
   | Some v ->
     Alcotest.failf "unexpected violation: %s"
       (String.concat "; "
          (List.map Check.Durable_lin.violation_to_string
             v.Check.Explore.v_violations)));
  check_bool "exhausted" true res.Check.Explore.exhausted;
  check_bool "reached terminals" true
    (res.Check.Explore.stats.Check.Explore.terminals > 0);
  check_bool "crash frontiers judged" true
    (res.Check.Explore.stats.Check.Explore.frontiers > 0);
  (* Exact figures of this scope: refactors of the engine must leave
     exploration byte-identical, so any drift here is a behaviour change,
     not noise. *)
  let st = res.Check.Explore.stats in
  check "schedules" 1336 st.Check.Explore.schedules;
  check "steps" 50381 st.Check.Explore.steps;
  check "states" 795 st.Check.Explore.states;
  check "recoveries" 9 st.Check.Explore.recoveries

let test_explore_finds_planted_fault () =
  (* one worker issuing two cross-shard multi-puts (keys 0 and 1 hash to
     different shards when nshards = 2): with the decision flushed before
     the prepares persist, the very first crash frontier after the early
     commit shows a committed transaction with missing prepares *)
  let scope =
    { explore_scope with Check.Explore.threads = 1; ops_per_worker = 2 }
  in
  let gen _rng = (Sharded_uc.op_multi_put, [| 0; 1; 5 |]) in
  let cfg = explore_cfg ~fault:Config.Commit_before_prepare_persist () in
  let res = ES.explore cfg ~gen_op:gen ~scope () in
  match res.Check.Explore.violation with
  | None -> Alcotest.fail "planted commit-before-prepare fault not found"
  | Some v ->
    check_bool "violation is a committed-txn atomicity break" true
      (List.exists
         (function
           | Check.Durable_lin.Atomicity_violation { committed = true; _ } ->
             true
           | _ -> false)
         v.Check.Explore.v_violations);
    check_bool "found at a crash frontier" true
      (v.Check.Explore.v_crash <> None);
    (* the decision trace + crash point replays to the same verdict *)
    let violations, crashed, _, _, _ =
      ES.replay cfg ~gen_op:gen ~scope ~decisions:v.Check.Explore.v_decisions
        ?crash:v.Check.Explore.v_crash ()
    in
    check_bool "replay crashed" true crashed;
    check_bool "replay reproduces the violation" true (violations <> [])

(* ---- config gates ---- *)

let test_config_gates () =
  Alcotest.check_raises "sharding requires durable"
    (Invalid_argument
       "Config: sharding requires durable mode (cross-shard commit \
        decisions are only meaningful over durably logged prepares)")
    (fun () ->
      Config.validate
        (Config.make ~mode:Config.Buffered ~shards:2 ~workers:2 ())
        ~beta:4);
  Alcotest.check_raises "fault needs shards"
    (Invalid_argument
       "Config: commit-before-prepare fault only exists with --shards >= 2")
    (fun () ->
      Config.validate
        (Config.make ~mode:Config.Durable
           ~fault:Config.Commit_before_prepare_persist ~workers:2 ())
        ~beta:4)

let () =
  Alcotest.run "shard"
    [
      ( "router",
        [
          Alcotest.test_case "partition" `Quick test_route_partition;
          Alcotest.test_case "shard-count invariance" `Quick
            test_shard_count_invariance;
          Alcotest.test_case "multi_put/transfer semantics" `Quick
            test_multi_put_and_transfer;
        ] );
      ( "decision",
        [ Alcotest.test_case "chunked table" `Quick test_decision_table_chunks ] );
      ( "fuzz",
        [
          Alcotest.test_case "single-key campaign" `Slow test_fuzz_single_key;
          Alcotest.test_case "10% cross campaign" `Slow test_fuzz_cross_10;
          Alcotest.test_case "50% multi campaign" `Slow test_fuzz_cross_50;
          Alcotest.test_case "planted fault caught + shrunk" `Slow
            test_fuzz_catches_planted_fault;
          Alcotest.test_case "fault inert without txns" `Slow
            test_fault_inert_without_multis;
        ] );
      ( "explore",
        [
          Alcotest.test_case "2-shard clean exhaustion" `Slow
            test_explore_2shard_clean;
          Alcotest.test_case "planted fault found + replayed" `Quick
            test_explore_finds_planted_fault;
        ] );
      ( "config",
        [ Alcotest.test_case "gates" `Quick test_config_gates ] );
    ]
