(* Deterministic budget of crash-point fuzzing: every PR explores crash
   points the seed tests never pinned down, with fixed seeds so CI cannot
   flake. Also validates that the harness has teeth — a deliberately
   broken variant must be caught and shrunk to a small repro — and that
   episodes are exactly reproducible (the shrinker and the printed repro
   commands depend on that). *)

open Prep

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module F = Check.Fuzz.Make (Check.Sut.Prep_uc (Seqds.Hashmap))
module H = Seqds.Hashmap

(* Same mix as the CLI fuzz workload: 60% updates over a small key range. *)
let gen_op rng =
  let k = Sim.Rng.int rng 64 in
  match Sim.Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> (H.op_insert, [| k; Sim.Rng.int rng 1000 |])
  | 4 | 5 -> (H.op_remove, [| k |])
  | 6 | 7 | 8 -> (H.op_get, [| k |])
  | _ -> (H.op_size, [||])

(* Every budget in this file is a deterministic count — [iters] episodes
   of [ops] operations per worker, under seed-derived schedules and
   crash points. Nothing loops on wall-clock time ([At_time] crash
   points are *simulated* nanoseconds, advanced by the deterministic
   scheduler), so a run's outcome and its cost are identical on every
   machine and CI never flakes on load. The bounded-exhaustive
   counterpart with the same property lives in test_explore.ml. *)
let template ~seed ~ops =
  {
    Check.Fuzz.workload_seed = seed;
    threads = 6;
    ops_per_worker = ops;
    bg_period = 2000;
    preempt_prob = 0.02;
    crash = Check.Fuzz.No_crash;
  }

(* the fuzzed construction over a 256-entry log; the gated layers are
   switched on by record update *)
let cfg ?(fault = Config.No_fault) ?(epsilon = 16) mode =
  Config.make ~mode ~log_size:256 ~epsilon ~fault ~workers:6 ()

let no_failures label cfg (res : Check.Fuzz.result) =
  List.iter
    (fun { Check.Fuzz.episode; violations } ->
      Alcotest.failf "%s: %s failed: %s" label
        (Fmt.str "%a" (Check.Fuzz.pp_episode cfg) episode)
        (String.concat "; "
           (List.map Check.Durable_lin.violation_to_string violations)))
    res.Check.Fuzz.failures

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* A planted fault must be caught, shrink to <= 4 threads and replay from
   scratch; the printed repro must name the fault and every flag the
   failing run had. *)
let caught_and_shrunk cfg ~tpl ~is_expected ~flag =
  let res = F.fuzz cfg ~gen_op ~template:tpl ~iters:8 () in
  check_bool "planted fault caught" true (res.Check.Fuzz.failures <> []);
  let first = List.hd res.Check.Fuzz.failures in
  check_bool "caught as the expected violation" true
    (List.exists is_expected first.Check.Fuzz.violations);
  let small = F.shrink cfg ~gen_op first.Check.Fuzz.episode in
  check_bool
    (Fmt.str "shrunk to <= 4 threads (%a)" (Check.Fuzz.pp_episode cfg) small)
    true
    (small.Check.Fuzz.threads <= 4);
  (* the shrunk episode, replayed from scratch, still reproduces *)
  let out = F.run_episode cfg ~gen_op small in
  check_bool "shrunk repro still fails" true (out.Check.Fuzz.violations <> []);
  let cmd = Check.Repro.fuzz ~ds:"hashmap" cfg small in
  check_bool "repro names the fault" true
    (contains cmd (Config.fault_name cfg.Config.fault));
  Option.iter
    (fun flag -> check_bool ("repro passes " ^ flag) true (contains cmd flag))
    flag

let is_loss_bound = function
  | Check.Durable_lin.Loss_bound_exceeded _ -> true
  | _ -> false

let is_durable_loss = function
  | Check.Durable_lin.Loss_bound_exceeded _
  | Check.Durable_lin.Prefix_violation _
  | Check.Durable_lin.State_mismatch _ -> true
  | _ -> false

let test_fuzz_buffered () =
  let cfg = cfg Config.Buffered in
  let res =
    F.fuzz cfg ~gen_op ~template:(template ~seed:4200 ~ops:120) ~iters:10 ()
  in
  no_failures "buffered" cfg res;
  check "episodes run" 10 res.Check.Fuzz.episodes;
  check_bool "crash points were explored" true (res.Check.Fuzz.crashes > 0)

let test_fuzz_durable () =
  let cfg = cfg Config.Durable in
  let res =
    F.fuzz cfg ~gen_op ~template:(template ~seed:5200 ~ops:120) ~iters:10 ()
  in
  no_failures "durable" cfg res;
  check_bool "crash points were explored" true (res.Check.Fuzz.crashes > 0)

let test_fuzz_volatile () =
  (* volatile episodes never crash; the harness still checks quiescent
     state against the full-trace replay under randomized preemption *)
  let cfg = cfg Config.Volatile in
  let res =
    F.fuzz cfg ~gen_op ~template:(template ~seed:6200 ~ops:120) ~iters:4 ()
  in
  no_failures "volatile" cfg res;
  check "no crashes in volatile mode" 0 res.Check.Fuzz.crashes

let test_episode_deterministic () =
  (* the same episode must produce bit-identical outcomes — repro commands
     and the shrinker rely on this *)
  let ep =
    { (template ~seed:777 ~ops:100) with crash = Check.Fuzz.At_op 200_000 }
  in
  let run () = F.run_episode (cfg Config.Buffered) ~gen_op ep in
  let a = run () and b = run () in
  check_bool "crashed" true a.Check.Fuzz.crashed;
  check "same logged" a.Check.Fuzz.logged b.Check.Fuzz.logged;
  check "same completed" a.Check.Fuzz.completed b.Check.Fuzz.completed;
  check "same applied" a.Check.Fuzz.applied b.Check.Fuzz.applied;
  check "both clean" 0
    (List.length a.Check.Fuzz.violations + List.length b.Check.Fuzz.violations)

let test_crash_hook_cuts_at_op () =
  (* an op-index crash must actually cut the run short *)
  let cfg = cfg Config.Buffered in
  let quiescent = F.run_episode cfg ~gen_op (template ~seed:888 ~ops:100) in
  check_bool "baseline finishes" false quiescent.Check.Fuzz.crashed;
  let ep =
    { (template ~seed:888 ~ops:100) with
      crash = Check.Fuzz.At_op (quiescent.Check.Fuzz.runtime_ops / 2) }
  in
  let out = F.run_episode cfg ~gen_op ep in
  check_bool "crashed mid-run" true out.Check.Fuzz.crashed;
  check_bool "partial trace" true
    (out.Check.Fuzz.logged < quiescent.Check.Fuzz.logged);
  check "clean" 0 (List.length out.Check.Fuzz.violations)

let test_broken_variant_caught_and_shrunk () =
  (* the known-bad ordering (flush boundary advanced before the persist +
     swap) must be detected within a small budget and shrink to <= 4
     threads with a replayable repro *)
  caught_and_shrunk
    (cfg ~fault:Config.Early_boundary_advance ~epsilon:8 Config.Buffered)
    ~tpl:(template ~seed:9000 ~ops:120) ~is_expected:is_loss_bound ~flag:None

let test_fixed_variant_passes_where_broken_fails () =
  (* same episodes, fault removed: the violations must disappear, pinning
     the failure on the injected bug rather than on the harness *)
  let cfg = cfg ~epsilon:8 Config.Buffered in
  let res =
    F.fuzz cfg ~gen_op ~template:(template ~seed:9000 ~ops:120) ~iters:8 ()
  in
  no_failures "fixed variant" cfg res

(* ---- differential fuzzing of the gated layers ----

   Each layer gets the same seeded crash-point budget with the flag off
   and on, and the durable-linearizability checker must find the
   variants indistinguishable (zero violations on both sides). The
   schedules themselves may diverge — the layers change the memory-op
   stream and so simulated time — so the comparison is at the level of
   the checked guarantees, plus a single-worker preemption-free
   calibration: there the op stream is a pure function of the seed
   (preemption draws from the scheduler rng on every tick, and the
   layers change the tick count, so it would shift the fiber rng
   seeding), so both variants must log and complete the exact same
   operations. *)

let calibrate label tpl ~base layered =
  let calib =
    { tpl with
      Check.Fuzz.threads = 1;
      ops_per_worker = 80;
      preempt_prob = 0.0 }
  in
  let a = F.run_episode base ~gen_op calib in
  let b = F.run_episode layered ~gen_op calib in
  check (label ^ ": same logged") a.Check.Fuzz.logged b.Check.Fuzz.logged;
  check (label ^ ": same completed") a.Check.Fuzz.completed
    b.Check.Fuzz.completed;
  check (label ^ ": same applied") a.Check.Fuzz.applied b.Check.Fuzz.applied

(* [layered] against the durable baseline at the same epsilon *)
let differential label ~seed ?(epsilon = 16) ?(iters = 10) layered =
  let tpl = template ~seed ~ops:120 in
  let base = cfg ~epsilon Config.Durable in
  let base_res = F.fuzz base ~gen_op ~template:tpl ~iters () in
  let opt = F.fuzz layered ~gen_op ~template:tpl ~iters () in
  no_failures "baseline" base base_res;
  no_failures label layered opt;
  check "same episode budget" base_res.Check.Fuzz.episodes
    opt.Check.Fuzz.episodes;
  check_bool (label ^ " crash points explored") true
    (opt.Check.Fuzz.crashes > 0);
  calibrate "calibration" tpl ~base layered

let test_fuzz_flit_differential () =
  differential "flit" ~seed:5200
    { (cfg Config.Durable) with Config.flit = true }

let test_fuzz_flit_buffered () =
  let cfg = { (cfg Config.Buffered) with Config.flit = true } in
  let res =
    F.fuzz cfg ~gen_op ~template:(template ~seed:4200 ~ops:120) ~iters:10 ()
  in
  no_failures "flit buffered" cfg res;
  check_bool "crash points were explored" true (res.Check.Fuzz.crashes > 0)

let test_flit_elide_ct_flush_caught_and_shrunk () =
  (* the planted fault skips the completedTail flush that the flit
     combiner otherwise relies on the flush-tracking layer to elide
     safely; the fuzzer must catch the resulting post-crash loss of
     completed operations and shrink it to a small replayable repro *)
  caught_and_shrunk
    { (cfg ~fault:Config.Elide_ct_flush Config.Durable) with
      Config.flit = true }
    ~tpl:(template ~seed:9100 ~ops:120)
    ~is_expected:(function
      | Check.Durable_lin.Loss_bound_exceeded _
      | Check.Durable_lin.Prefix_violation _ -> true
      | _ -> false)
    ~flag:(Some "--flit")

let test_flit_fault_needs_flit_combiner () =
  (* without the flush-elimination layer the baseline combiner issues
     per-entry CLFLUSHes that also persist the log payloads, so the same
     fault still loses the completedTail but recovery replays the full
     durable log: the episodes that fail under flit must fail here too —
     the fault elides a flush the durable guarantee depends on in both
     combiners. Running it pins the fault's blast radius. *)
  let res =
    F.fuzz (cfg ~fault:Config.Elide_ct_flush Config.Durable) ~gen_op
      ~template:(template ~seed:9100 ~ops:120) ~iters:8 ()
  in
  check_bool "fault observable without flit too" true
    (res.Check.Fuzz.failures <> [])

let test_fuzz_mirror_differential () =
  differential "log-mirror" ~seed:5300
    { (cfg Config.Durable) with Config.log_mirror = true }

let test_fuzz_dist_rw_differential () =
  differential "dist-rw" ~seed:5400
    { (cfg Config.Durable) with Config.dist_rw = true }

let test_fuzz_package_differential () =
  (* the shipping configuration: everything on at once, over buffered mode
     as well so the epsilon+beta-1 loss bound is exercised too *)
  let package mode =
    { (cfg mode) with
      Config.flit = true;
      dist_rw = true;
      log_mirror = true;
      slot_bitmap = true }
  in
  let tpl = template ~seed:5500 ~ops:120 in
  List.iter
    (fun mode ->
      let cfg = package mode in
      let res = F.fuzz cfg ~gen_op ~template:tpl ~iters:10 () in
      no_failures "package" cfg res;
      check_bool "crash points explored" true (res.Check.Fuzz.crashes > 0))
    [ Config.Buffered; Config.Durable ];
  calibrate "calibration" tpl ~base:(cfg Config.Durable)
    (package Config.Durable)

let test_mirror_read_recovery_caught_and_shrunk () =
  (* the planted fault serves recovery's log replay from the DRAM mirror —
     volatile, zeroed by the crash — so durably completed operations read
     as holes and are dropped; the fuzzer must catch the durable loss and
     shrink it to a replayable repro *)
  caught_and_shrunk
    { (cfg ~fault:Config.Mirror_read_on_recovery Config.Durable) with
      Config.log_mirror = true }
    ~tpl:(template ~seed:9300 ~ops:40) ~is_expected:is_durable_loss
    ~flag:(Some "--log-mirror")

let test_mirror_fault_inert_without_mirror () =
  (* without the mirror there is nothing volatile to read from: the fault
     flag must be a no-op, pinning the failure above on the mirror itself *)
  let cfg = cfg ~fault:Config.Mirror_read_on_recovery Config.Durable in
  let res =
    F.fuzz cfg ~gen_op ~template:(template ~seed:9300 ~ops:40) ~iters:8 ()
  in
  no_failures "fault without mirror" cfg res

(* ---- detectability layer ----

   Same methodology again: the detect protocol (persistent announces,
   combiner-persisted responses) gets a seeded crash-point budget of its
   own, and its planted fault — responses reaching media before the log
   entries they answer for — must be caught and shrunk. *)

let test_fuzz_detect_clean () =
  let cfg = { (cfg Config.Durable) with Config.detect = true } in
  let res =
    F.fuzz cfg ~gen_op ~template:(template ~seed:5600 ~ops:120) ~iters:10 ()
  in
  no_failures "detect" cfg res;
  check_bool "detect crash points explored" true (res.Check.Fuzz.crashes > 0)

let test_response_before_log_persist_caught_and_shrunk () =
  (* the planted fault persists responses eagerly (CLFLUSH to media) while
     leaving the log entries' write-backs unfenced: a crash in the window
     leaves a response promising seqno s with no durable log entry to back
     it, which recovery surfaces as a resolve mismatch (Completed claimed,
     op not applied) or as completed-op loss *)
  caught_and_shrunk
    { (cfg ~fault:Config.Response_before_log_persist Config.Durable) with
      Config.detect = true }
    ~tpl:(template ~seed:9400 ~ops:60)
    ~is_expected:(function
      | Check.Durable_lin.Resolve_mismatch _
      | Check.Durable_lin.Loss_bound_exceeded _
      | Check.Durable_lin.Prefix_violation _ -> true
      | _ -> false)
    ~flag:(Some "--detect")

let test_response_fault_requires_detect () =
  (* without the detectability layer there are no response records to
     persist early: the config layer rejects the combination outright, so
     the fault can never masquerade as a baseline bug *)
  Alcotest.check_raises "config rejects fault without detect"
    (Invalid_argument
       "Config: response-before-log-persist fault only exists under --detect")
    (fun () ->
      Config.validate ~beta:4
        (Config.make ~mode:Config.Durable
           ~fault:Config.Response_before_log_persist ~workers:1 ()));
  Alcotest.check_raises "config rejects detect outside durable"
    (Invalid_argument
       "Config: detectable execution requires durable mode (a buffered \
        checkpoint cannot be gated on response persistence)")
    (fun () ->
      Config.validate ~beta:4
        (Config.make ~mode:Config.Buffered ~detect:true ~workers:1 ()))

(* A second data structure through the same harness: the fuzzing oracle is
   the pure model, so any Ds_intf.S implementation plugs in. *)
module Fq = Check.Fuzz.Make (Check.Sut.Prep_uc (Seqds.Queue_ds))

let queue_gen rng =
  if Sim.Rng.int rng 2 = 0 then
    (Seqds.Queue_ds.op_enqueue, [| Sim.Rng.int rng 1000 |])
  else (Seqds.Queue_ds.op_dequeue, [||])

let test_fuzz_queue_durable () =
  let cfg = cfg Config.Durable in
  let res =
    Fq.fuzz cfg ~gen_op:queue_gen ~template:(template ~seed:7300 ~ops:120)
      ~iters:6 ()
  in
  no_failures "queue" cfg res

(* ---- incremental (lsm) checkpointing ----

   The [--lsm-ckpt] backend replaces the whole-replica flush+swap with
   memtable seals into immutable segments under a fenced manifest.
   Behaviourally it must be invisible, so it gets the standard treatment:
   a differential crash-point budget against the classic checkpoint on
   every map implementation, and its planted fault — the manifest record
   published *before* the segments it names are sealed — must be caught
   and shrunk to a replayable repro that carries both flags. *)

module Frb = Check.Fuzz.Make (Check.Sut.Prep_uc (Seqds.Rbtree))
module Fsl = Check.Fuzz.Make (Check.Sut.Prep_uc (Seqds.Skiplist))

let lsm_cfg ?fault mode =
  { (cfg ?fault ~epsilon:8 mode) with Config.lsm_ckpt = true }

let test_fuzz_lsm_differential () =
  differential "lsm" ~seed:5700 ~epsilon:8 ~iters:8 (lsm_cfg Config.Durable)

let test_fuzz_lsm_all_maps () =
  (* the dirty tracker keys on Ds.classify, so each map implementation's
     key_effect wiring is load-bearing; buffered mode rides along to cover
     the no-replay recovery path *)
  let tpl = template ~seed:5800 ~ops:100 in
  let run label cfg res =
    no_failures label cfg res;
    check_bool (label ^ ": crash points explored") true
      (res.Check.Fuzz.crashes > 0)
  in
  let durable = lsm_cfg Config.Durable and buffered = lsm_cfg Config.Buffered in
  run "lsm rbtree" durable
    (Frb.fuzz durable ~gen_op ~template:tpl ~iters:6 ());
  run "lsm skiplist" durable
    (Fsl.fuzz durable ~gen_op ~template:tpl ~iters:6 ());
  run "lsm buffered hashmap" buffered
    (F.fuzz buffered ~gen_op ~template:tpl ~iters:6 ())

let test_manifest_before_seal_caught_and_shrunk () =
  (* the planted fault names segment addresses in a durable manifest
     record before their bodies are sealed: a crash in the window mounts
     nothing at those addresses while sealed_lt already skips their log
     entries, so recovery silently loses sealed effects *)
  caught_and_shrunk
    (lsm_cfg ~fault:Config.Manifest_before_segment_seal Config.Durable)
    ~tpl:(template ~seed:9400 ~ops:120) ~is_expected:is_durable_loss
    ~flag:(Some "--lsm-ckpt")

let test_lsm_config_rejections () =
  (* the config layer pins the lsm flag combinations that have no
     semantics, so they can never masquerade as bugs *)
  Alcotest.check_raises "volatile has no checkpoints to replace"
    (Invalid_argument
       "Config: --lsm-ckpt is a checkpoint strategy; the volatile \
        variant has no checkpoints")
    (fun () ->
      Config.validate ~beta:4
        (Config.make ~mode:Config.Volatile ~lsm_ckpt:true ~workers:1 ()));
  Alcotest.check_raises "fanout below 2 cannot converge"
    (Invalid_argument "Config: lsm_fanout must be at least 2")
    (fun () ->
      Config.validate ~beta:4
        (Config.make ~mode:Config.Durable ~lsm_ckpt:true ~lsm_fanout:1
           ~workers:1 ()));
  Alcotest.check_raises "manifest fault needs the lsm backend"
    (Invalid_argument
       "Config: manifest-before-seal fault only exists under --lsm-ckpt")
    (fun () ->
      Config.validate ~beta:4
        (Config.make ~mode:Config.Durable
           ~fault:Config.Manifest_before_segment_seal ~workers:1 ()))

(* ---- durable_lin checker unit tests on synthetic reports ---- *)

module Dl = Check.Durable_lin.Make (H.Model)

let synthetic_trace ops =
  let tr = Trace.create () in
  List.iteri
    (fun i (op, args, completed) ->
      Trace.logged tr i ~op ~args;
      if completed then Trace.completed tr i)
    ops;
  tr

let ins k v completed = (H.op_insert, [| k; v |], completed)

let test_checker_accepts_prefix () =
  let tr = synthetic_trace [ ins 1 10 true; ins 2 20 true; ins 3 30 true ] in
  let model =
    List.fold_left
      (fun m (op, args, _) -> fst (H.Model.apply m ~op ~args))
      H.Model.empty
      [ ins 1 10 true; ins 2 20 true ]
  in
  let v =
    Dl.check ~trace:tr ~prefill:[] ~applied:[ 0; 1 ] ~completed:[ 0; 1; 2 ]
      ~recovered_snapshot:(H.Model.snapshot model) ~loss_bound:1 ()
  in
  check "prefix loss within bound accepted" 0 (List.length v)

let test_checker_rejects_lost_before_survivor () =
  let tr = synthetic_trace [ ins 1 10 true; ins 2 20 true ] in
  let model = fst (H.Model.apply H.Model.empty ~op:H.op_insert ~args:[| 2; 20 |]) in
  let v =
    Dl.check ~trace:tr ~prefill:[] ~applied:[ 1 ] ~completed:[ 0; 1 ]
      ~recovered_snapshot:(H.Model.snapshot model) ~loss_bound:5 ()
  in
  check_bool "completed op lost before survivor rejected" true
    (List.exists
       (function Check.Durable_lin.Prefix_violation _ -> true | _ -> false)
       v)

let test_checker_allows_uncompleted_hole () =
  (* a log hole that never completed may be skipped (durable mode) *)
  let tr = synthetic_trace [ ins 1 10 true; ins 2 20 false; ins 3 30 true ] in
  let model =
    List.fold_left
      (fun m (k, v) -> fst (H.Model.apply m ~op:H.op_insert ~args:[| k; v |]))
      H.Model.empty [ (1, 10); (3, 30) ]
  in
  let v =
    Dl.check ~trace:tr ~prefill:[] ~applied:[ 0; 2 ] ~completed:[ 0; 2 ]
      ~recovered_snapshot:(H.Model.snapshot model) ~loss_bound:0 ()
  in
  check "uncompleted hole tolerated" 0 (List.length v)

let test_checker_rejects_state_mismatch () =
  let tr = synthetic_trace [ ins 1 10 true ] in
  let v =
    Dl.check ~trace:tr ~prefill:[] ~applied:[ 0 ] ~completed:[ 0 ]
      ~recovered_snapshot:[ 1; 99 ] ~loss_bound:0 ()
  in
  check_bool "wrong recovered state rejected" true
    (List.exists
       (function Check.Durable_lin.State_mismatch _ -> true | _ -> false)
       v)

let () =
  Alcotest.run "fuzz"
    [
      ( "checker",
        [
          Alcotest.test_case "accepts prefix within bound" `Quick
            test_checker_accepts_prefix;
          Alcotest.test_case "rejects lost-before-survivor" `Quick
            test_checker_rejects_lost_before_survivor;
          Alcotest.test_case "allows uncompleted hole" `Quick
            test_checker_allows_uncompleted_hole;
          Alcotest.test_case "rejects state mismatch" `Quick
            test_checker_rejects_state_mismatch;
        ] );
      ( "harness",
        [
          Alcotest.test_case "episode deterministic" `Quick
            test_episode_deterministic;
          Alcotest.test_case "crash hook cuts at op" `Quick
            test_crash_hook_cuts_at_op;
        ] );
      ( "fuzzing",
        [
          Alcotest.test_case "buffered clean" `Slow test_fuzz_buffered;
          Alcotest.test_case "durable clean" `Slow test_fuzz_durable;
          Alcotest.test_case "volatile clean" `Slow test_fuzz_volatile;
          Alcotest.test_case "queue durable clean" `Slow test_fuzz_queue_durable;
          Alcotest.test_case "broken variant caught and shrunk" `Slow
            test_broken_variant_caught_and_shrunk;
          Alcotest.test_case "fixed variant passes same episodes" `Slow
            test_fixed_variant_passes_where_broken_fails;
        ] );
      ( "flit",
        [
          Alcotest.test_case "differential: flit indistinguishable" `Slow
            test_fuzz_flit_differential;
          Alcotest.test_case "flit buffered clean" `Slow test_fuzz_flit_buffered;
          Alcotest.test_case "elide-ct-flush caught and shrunk" `Slow
            test_flit_elide_ct_flush_caught_and_shrunk;
          Alcotest.test_case "elide-ct-flush observable without flit" `Slow
            test_flit_fault_needs_flit_combiner;
        ] );
      ( "numa",
        [
          Alcotest.test_case "differential: log mirror indistinguishable" `Slow
            test_fuzz_mirror_differential;
          Alcotest.test_case "differential: dist-rw indistinguishable" `Slow
            test_fuzz_dist_rw_differential;
          Alcotest.test_case "differential: full package indistinguishable"
            `Slow test_fuzz_package_differential;
          Alcotest.test_case "mirror-read-recovery caught and shrunk" `Slow
            test_mirror_read_recovery_caught_and_shrunk;
          Alcotest.test_case "mirror fault inert without mirror" `Slow
            test_mirror_fault_inert_without_mirror;
        ] );
      ( "lsm",
        [
          Alcotest.test_case "differential: lsm ckpt indistinguishable" `Slow
            test_fuzz_lsm_differential;
          Alcotest.test_case "lsm clean on every map + buffered" `Slow
            test_fuzz_lsm_all_maps;
          Alcotest.test_case "manifest-before-seal caught and shrunk" `Slow
            test_manifest_before_seal_caught_and_shrunk;
          Alcotest.test_case "config rejects meaningless lsm combinations"
            `Quick test_lsm_config_rejections;
        ] );
      ( "detect",
        [
          Alcotest.test_case "detect clean" `Slow test_fuzz_detect_clean;
          Alcotest.test_case "response-before-log-persist caught and shrunk"
            `Slow test_response_before_log_persist_caught_and_shrunk;
          Alcotest.test_case "response fault requires detect" `Quick
            test_response_fault_requires_detect;
        ] );
    ]
