(* Bounded exhaustive schedule-and-crash exploration: the explorer must
   find every planted protocol fault deterministically inside a fixed
   budget, produce decision traces that replay to the same violation,
   exhaust the no-fault small scopes with zero violations, show the
   epsilon+beta-1 loss bound tight, and beat naive enumeration by a wide
   margin. Every budget below is a schedule/state/step count — nothing
   here is wall-clock — so the suite cannot flake under load. *)

open Prep

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module E = Check.Explore.Make (Check.Sut.Prep_uc (Seqds.Hashmap))
module H = Seqds.Hashmap

(* Same op mix as the CLI explore workload; the seeds below were picked
   for their draw under exactly this generator (seed 6 draws updates
   only, so every op is logged and loss-visible). *)
let gen_op rng =
  let k = Sim.Rng.int rng 64 in
  match Sim.Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> (H.op_insert, [| k; Sim.Rng.int rng 1000 |])
  | 4 | 5 -> (H.op_remove, [| k |])
  | 6 | 7 | 8 -> (H.op_get, [| k |])
  | _ -> (H.op_size, [||])

(* The minimal fault-detection scope: one worker plus the persistence
   thread on its own socket (beta = 1), two update ops, epsilon 1 — the
   smallest workload on which each planted fault is observable at all. *)
let scope_1w =
  {
    Check.Explore.seed = 6;
    threads = 1;
    ops_per_worker = 2;
    sockets = 2;
    cores_per_socket = 1;
    prune = true;
    persistence = true;
  }

(* the scope's configuration: epsilon 1 over a 16-entry log; the gated
   layers are switched on by record update *)
let cfg ?(fault = Config.No_fault) mode =
  Config.make ~mode ~log_size:16 ~epsilon:1 ~fault ~workers:1 ()

let budget =
  { Check.Explore.default_budget with Check.Explore.max_schedules = 20_000 }

let explore ?(budget = budget) ?(scope = scope_1w) cfg =
  E.explore ~budget cfg ~gen_op ~scope ()

let exhausted_clean label (res : Check.Explore.result) =
  check_bool (label ^ ": no violation") true
    (res.Check.Explore.violation = None);
  check_bool (label ^ ": exhausted") true res.Check.Explore.exhausted;
  check_bool (label ^ ": reached terminals") true
    (res.Check.Explore.stats.Check.Explore.terminals > 0)

(* A violation's decision trace must replay to the same violation — the
   round-trip through the textual run-length encoding included, because
   that is what the CLI repro command ships. *)
let replay_reproduces label cfg scope (v : Check.Explore.violation) =
  let decisions =
    Check.Explore.decisions_of_string
      (Check.Explore.decisions_to_string v.Check.Explore.v_decisions)
  in
  let violations, crashed, logged, completed, applied =
    E.replay cfg ~gen_op ~scope ~decisions ?crash:v.Check.Explore.v_crash ()
  in
  check_bool (label ^ ": replay violates") true (violations <> []);
  check_bool (label ^ ": replay crashed") true
    (crashed = (v.Check.Explore.v_crash <> None));
  check (label ^ ": replay logged") v.Check.Explore.v_logged logged;
  check (label ^ ": replay completed") v.Check.Explore.v_completed completed;
  check (label ^ ": replay applied") v.Check.Explore.v_applied applied

let is_loss_bound = function
  | Check.Durable_lin.Loss_bound_exceeded _ -> true
  | _ -> false

(* ---- planted faults: found deterministically, traces replay ---- *)

let test_early_boundary_found () =
  (* boundary advanced before the flush+swap: completed ops race a full
     window ahead of the stable checkpoint, so a crash can lose 2 ops
     against the epsilon+beta-1 = 1 bound *)
  let cfg = cfg ~fault:Config.Early_boundary_advance Config.Buffered in
  let res = explore cfg in
  match res.Check.Explore.violation with
  | None -> Alcotest.fail "early-boundary fault not found within budget"
  | Some v ->
    check_bool "found as loss-bound violation" true
      (List.exists is_loss_bound v.Check.Explore.v_violations);
    check_bool "found at a crash frontier" true
      (v.Check.Explore.v_crash <> None);
    replay_reproduces "early-boundary" cfg scope_1w v

let test_elide_ct_flush_found () =
  (* durable mode promises zero loss; eliding the completedTail flush
     loses the tail on crash and recovery drops a completed op *)
  let cfg = cfg ~fault:Config.Elide_ct_flush Config.Durable in
  let res = explore cfg in
  match res.Check.Explore.violation with
  | None -> Alcotest.fail "elide-ct-flush fault not found within budget"
  | Some v ->
    check_bool "found as loss-bound violation" true
      (List.exists is_loss_bound v.Check.Explore.v_violations);
    replay_reproduces "elide-ct-flush" cfg scope_1w v

let test_mirror_read_found () =
  (* recovery served from the DRAM log mirror, which the crash zeroed:
     durably completed ops read as holes and are dropped *)
  let cfg =
    { (cfg ~fault:Config.Mirror_read_on_recovery Config.Durable) with
      Config.log_mirror = true }
  in
  let res = explore cfg in
  match res.Check.Explore.violation with
  | None -> Alcotest.fail "mirror-read fault not found within budget"
  | Some v ->
    replay_reproduces "mirror-read" cfg scope_1w v

(* ---- determinism: same scope, same budget => identical outcome ---- *)

let test_exploration_deterministic () =
  let run () = explore (cfg ~fault:Config.Elide_ct_flush Config.Durable) in
  let a = run () and b = run () in
  match (a.Check.Explore.violation, b.Check.Explore.violation) with
  | Some va, Some vb ->
    check_bool "same decision trace" true
      (va.Check.Explore.v_decisions = vb.Check.Explore.v_decisions);
    check_bool "same crash point" true
      (va.Check.Explore.v_crash = vb.Check.Explore.v_crash);
    check "same schedules to find"
      a.Check.Explore.stats.Check.Explore.schedules
      b.Check.Explore.stats.Check.Explore.schedules
  | _ -> Alcotest.fail "fault not found on one of two identical runs"

(* ---- no-fault scopes explore clean ---- *)

let buffered_clean =
  lazy (explore (cfg Config.Buffered))

let test_no_fault_buffered_exhausts () =
  let res = Lazy.force buffered_clean in
  exhausted_clean "buffered" res;
  (* epsilon + beta - 1 = 1: crashes may lose at most one completed op,
     and some crash does lose one *)
  check "max completed-op loss at the bound" 1
    res.Check.Explore.stats.Check.Explore.max_completed_loss;
  check "single quiescent state" 1
    (List.length res.Check.Explore.terminal_states)

let test_no_fault_flit_exhausts () =
  let res = explore { (cfg Config.Buffered) with Config.flit = true } in
  exhausted_clean "flit" res

(* Full NUMA hot-path package (distributed reader locks, DRAM log
   mirror, slot-occupancy bitmaps) plus flush elimination, in durable
   mode — shared between the exhaustion test and the combined
   flag-equivalence test below. *)
let package_clean =
  lazy
    (explore
       { (cfg Config.Durable) with
         Config.flit = true; dist_rw = true; log_mirror = true;
         slot_bitmap = true })

let test_no_fault_package_exhausts () =
  let res = Lazy.force package_clean in
  exhausted_clean "numa package" res;
  check "durable: no completed op ever lost" 0
    res.Check.Explore.stats.Check.Explore.max_completed_loss

(* ---- epsilon+beta-1 tightness (epsilon = 2, beta = 1) ---- *)

let test_loss_bound_tight () =
  (* three update ops against a bound of 2: exhaustive search must
     exhibit a crash losing exactly 2 completed ops (the bound is
     attained) and none losing more (the bound holds) *)
  let scope = { scope_1w with Check.Explore.ops_per_worker = 3 } in
  let res = explore ~scope { (cfg Config.Buffered) with Config.epsilon = 2 } in
  exhausted_clean "tightness" res;
  check "worst crash loses exactly epsilon+beta-1 = 2" 2
    res.Check.Explore.stats.Check.Explore.max_completed_loss

(* ---- DPOR-style pruning vs naive enumeration ---- *)

let test_pruning_reduction () =
  (* The pruned explorer finishes the whole space of the one-op scope in
     S schedules; naive enumeration given the same S cannot. The full
     >=10x factor is too slow for runtest, so it lives in the CI explore
     smoke job and EXPERIMENTS.md: naive given 10x S (38,970 schedules)
     still does not exhaust — measured at >10x on schedules and >20x on
     distinct states for both the one-op and two-op scopes. *)
  let scope = { scope_1w with Check.Explore.ops_per_worker = 1 } in
  let allocated () =
    let g = Gc.quick_stat () in
    g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words
  in
  let minors () = (Gc.quick_stat ()).Gc.minor_collections in
  let before = allocated () and minors_before = minors () in
  let pruned = explore ~scope (cfg Config.Buffered) in
  let words = allocated () -. before and minor_gcs = minors () - minors_before in
  exhausted_clean "pruned one-op scope" pruned;
  let ps = pruned.Check.Explore.stats in
  (* one memory serves every schedule ([Memory.reset]), so a schedule
     allocates what it touches (~11 k words here), not fresh 64 k-word
     arenas, and nothing per schedule lands in the major heap directly
     (a 1,024-slot trace array once forced a minor GC per schedule) *)
  let per_schedule = words /. float_of_int ps.Check.Explore.schedules in
  check_bool
    (Printf.sprintf "allocated words per schedule (%.0f) at most 25 k"
       per_schedule)
    true (per_schedule <= 25_000.);
  check_bool
    (Printf.sprintf "minor collections (%d) under schedules / 10 (%d)"
       minor_gcs (ps.Check.Explore.schedules / 10))
    true (minor_gcs < ps.Check.Explore.schedules / 10);
  (* Exact figures of this scope (the CLI's verify scope): refactors of
     the engine must leave exploration byte-identical, so any drift here
     is a behaviour change, not noise. *)
  check "schedules" 3897 ps.Check.Explore.schedules;
  check "terminals" 125 ps.Check.Explore.terminals;
  check "steps" 242417 ps.Check.Explore.steps;
  check "states" 1628 ps.Check.Explore.states;
  check "recoveries" 69 ps.Check.Explore.recoveries;
  check_bool "sleep sets fired" true (ps.Check.Explore.sleep_skips > 0);
  check_bool "state dedup fired" true (ps.Check.Explore.dedup_hits > 0);
  let naive =
    explore
      ~budget:
        { budget with Check.Explore.max_schedules = ps.Check.Explore.schedules }
      ~scope:{ scope with Check.Explore.prune = false }
      (cfg Config.Buffered)
  in
  check_bool "naive finds no violation either" true
    (naive.Check.Explore.violation = None);
  check_bool
    (Printf.sprintf
       "naive has not exhausted the space pruned finished in %d schedules"
       ps.Check.Explore.schedules)
    true
    (not naive.Check.Explore.exhausted)

(* ---- flag equivalence on exhaustively explored small scopes ----

   The gated optimisations must be observationally equivalent to the
   baseline: over the fully explored schedule space of the same workload
   the set of distinct quiescent states must coincide (here the scope is
   confluent: a single terminal state, equal across configurations, and
   zero violations on every side). *)

let equivalent label base opt =
  check_bool (label ^ ": baseline clean") true
    (base.Check.Explore.violation = None && base.Check.Explore.exhausted);
  check_bool (label ^ ": optimised clean") true
    (opt.Check.Explore.violation = None && opt.Check.Explore.exhausted);
  check_bool (label ^ ": same terminal states") true
    (base.Check.Explore.terminal_states = opt.Check.Explore.terminal_states)

let durable_base = lazy (explore (cfg Config.Durable))

let test_equiv_dist_rw () =
  equivalent "dist-rw" (Lazy.force durable_base)
    (explore { (cfg Config.Durable) with Config.dist_rw = true })

let test_equiv_log_mirror () =
  equivalent "log-mirror" (Lazy.force durable_base)
    (explore { (cfg Config.Durable) with Config.log_mirror = true })

let test_equiv_slot_bitmap () =
  equivalent "slot-bitmap" (Lazy.force durable_base)
    (explore { (cfg Config.Durable) with Config.slot_bitmap = true })

let test_equiv_combined () =
  equivalent "combined" (Lazy.force durable_base) (Lazy.force package_clean)

(* Two workers, three ops each (six ops total): the interleaving space
   is too large to exhaust in runtest, so each flag configuration gets
   the same fixed schedule budget and must stay violation-free across
   every explored interleaving and crash frontier. Durable mode makes
   the check sharp — any completed-op loss at any explored crash point
   is a violation. *)
let test_equiv_two_thread_budgeted () =
  let scope =
    {
      Check.Explore.seed = 1;
      threads = 2;
      ops_per_worker = 3;
      sockets = 2;
      cores_per_socket = 2;
      prune = true;
      persistence = true;
    }
  in
  let budget =
    { Check.Explore.default_budget with Check.Explore.max_schedules = 1_500 }
  in
  List.iter
    (fun (label, dist_rw, log_mirror, slot_bitmap) ->
      let res =
        explore ~budget ~scope
          { (cfg Config.Durable) with
            Config.epsilon = 2; dist_rw; log_mirror; slot_bitmap }
      in
      check_bool (label ^ ": no violation in budget") true
        (res.Check.Explore.violation = None);
      check (label ^ ": durable, no loss at any explored crash") 0
        res.Check.Explore.stats.Check.Explore.max_completed_loss;
      check_bool (label ^ ": crash frontiers were checked") true
        (res.Check.Explore.stats.Check.Explore.recoveries > 0))
    [
      ("baseline", false, false, false);
      ("dist-rw", true, false, false);
      ("log-mirror", false, true, false);
      ("slot-bitmap", false, false, true);
      ("combined", true, true, true);
    ]

(* ---- detectability layer ----

   Durable mode with persistent announces and combiner-persisted
   responses: every explored crash frontier runs recovery *and* the
   resolve consistency check (a response claiming seqno s with s not
   applied, or a Lost/Unannounced verdict contradicting the replayed
   log, is a violation). Exhausting a scope therefore proves that no
   reachable crash point can make a client lose or duplicate an op it
   resolves on. *)

let test_detect_scope_exhausts () =
  let res = explore { (cfg Config.Durable) with Config.detect = true } in
  exhausted_clean "detect" res;
  check "durable+detect: no completed op ever lost" 0
    res.Check.Explore.stats.Check.Explore.max_completed_loss;
  check_bool "crash frontiers ran resolve checks" true
    (res.Check.Explore.stats.Check.Explore.recoveries > 0);
  check "single quiescent state" 1
    (List.length res.Check.Explore.terminal_states)

let test_detect_two_thread_budgeted () =
  (* two announcing clients racing the combiner and the crash frontier:
     the interleaving space is too large to exhaust in runtest, so the
     scope gets a fixed schedule budget (the CI explore smoke job runs
     the exhaustive version) and must stay free of resolve and
     exactly-once violations across every explored frontier *)
  let scope =
    {
      Check.Explore.seed = 1;
      threads = 2;
      ops_per_worker = 2;
      sockets = 2;
      cores_per_socket = 2;
      prune = true;
      persistence = true;
    }
  in
  let budget =
    { Check.Explore.default_budget with Check.Explore.max_schedules = 1_500 }
  in
  let res =
    explore ~budget ~scope
      { (cfg Config.Durable) with Config.epsilon = 2; detect = true }
  in
  check_bool "no violation in budget" true
    (res.Check.Explore.violation = None);
  check "durable+detect: no loss at any explored crash" 0
    res.Check.Explore.stats.Check.Explore.max_completed_loss;
  check_bool "crash frontiers were checked" true
    (res.Check.Explore.stats.Check.Explore.recoveries > 0)

let test_detect_response_fault_found () =
  (* responses flushed to media while the log write-backs stay unfenced:
     the explorer must find a frontier where a response promises an op
     the replayed log cannot back, deterministically, and the decision
     trace must replay to the same violation *)
  let cfg =
    { (cfg ~fault:Config.Response_before_log_persist Config.Durable) with
      Config.detect = true }
  in
  let res = explore cfg in
  match res.Check.Explore.violation with
  | None ->
    Alcotest.fail "response-before-log-persist fault not found within budget"
  | Some v ->
    check_bool "found at a crash frontier" true
      (v.Check.Explore.v_crash <> None);
    check_bool "found as resolve mismatch or durable loss" true
      (List.exists
         (function
           | Check.Durable_lin.Resolve_mismatch _
           | Check.Durable_lin.Loss_bound_exceeded _
           | Check.Durable_lin.Prefix_violation _ -> true
           | _ -> false)
         v.Check.Explore.v_violations);
    replay_reproduces "response-before-log-persist" cfg scope_1w v

(* ---- incremental (lsm) checkpointing ----

   The seal/compact/crash interleaving space of the [--lsm-ckpt] backend:
   memtable seals into segments, background compaction sharing the
   persistence core, manifest publishes, and crash frontiers through all
   of it. Fanout 2 keeps compaction reachable inside the tiny scope. *)

let lsm_budget =
  (* the extra persistence-core fiber (compaction) and the seal-watermark
     stable tail roughly double the interleavings of the classic scope;
     measured exhaustion is ~66k schedules, the budget leaves headroom
     without masking a blow-up *)
  { Check.Explore.default_budget with Check.Explore.max_schedules = 100_000 }

let lsm_cfg fault =
  { (cfg ~fault Config.Durable) with Config.lsm_ckpt = true; lsm_fanout = 2 }

let test_lsm_scope_exhausts () =
  let res = explore ~budget:lsm_budget (lsm_cfg Config.No_fault) in
  exhausted_clean "lsm" res;
  check "durable: no completed op ever lost" 0
    res.Check.Explore.stats.Check.Explore.max_completed_loss

let test_manifest_before_seal_found () =
  (* the manifest record goes durable naming segments whose bodies are
     still dirty: the explorer must find a crash frontier that keeps the
     record and drops the segments, losing sealed effects recovery no
     longer replays (sealed_lt already skips their log entries) *)
  let cfg = lsm_cfg Config.Manifest_before_segment_seal in
  let res = explore ~budget:lsm_budget cfg in
  match res.Check.Explore.violation with
  | None -> Alcotest.fail "manifest-before-seal fault not found within budget"
  | Some v ->
    check_bool "found at a crash frontier" true
      (v.Check.Explore.v_crash <> None);
    check_bool "found as durable loss or state mismatch" true
      (List.exists
         (function
           | Check.Durable_lin.Loss_bound_exceeded _
           | Check.Durable_lin.Prefix_violation _
           | Check.Durable_lin.State_mismatch _ -> true
           | _ -> false)
         v.Check.Explore.v_violations);
    replay_reproduces "manifest-before-seal" cfg scope_1w v

(* ---- decision-trace encoding ---- *)

let test_rle_roundtrip () =
  let cases =
    [ []; [ 0 ]; [ 1; 1; 1 ]; [ 0; 2; 2; 1; 0; 0; 0; 2 ]; List.init 40 (fun i -> i mod 3) ]
  in
  List.iter
    (fun ds ->
      let s = Check.Explore.decisions_to_string ds in
      check_bool (Printf.sprintf "roundtrip %S" s) true
        (Check.Explore.decisions_of_string s = ds))
    cases

let () =
  Alcotest.run "explore"
    [
      ( "encoding",
        [ Alcotest.test_case "decision-trace RLE roundtrip" `Quick test_rle_roundtrip ] );
      ( "faults",
        [
          Alcotest.test_case "early-boundary found and replays" `Slow
            test_early_boundary_found;
          Alcotest.test_case "elide-ct-flush found and replays" `Slow
            test_elide_ct_flush_found;
          Alcotest.test_case "mirror-read found and replays" `Slow
            test_mirror_read_found;
          Alcotest.test_case "exploration deterministic" `Slow
            test_exploration_deterministic;
        ] );
      ( "no-fault",
        [
          Alcotest.test_case "buffered scope exhausts clean" `Slow
            test_no_fault_buffered_exhausts;
          Alcotest.test_case "flit scope exhausts clean" `Slow
            test_no_fault_flit_exhausts;
          Alcotest.test_case "numa package scope exhausts clean" `Slow
            test_no_fault_package_exhausts;
          Alcotest.test_case "loss bound tight at eps=2 beta=1" `Slow
            test_loss_bound_tight;
        ] );
      ( "reduction",
        [ Alcotest.test_case "pruning beats naive 10x" `Slow test_pruning_reduction ] );
      ( "equivalence",
        [
          Alcotest.test_case "dist-rw terminal states" `Slow test_equiv_dist_rw;
          Alcotest.test_case "log-mirror terminal states" `Slow
            test_equiv_log_mirror;
          Alcotest.test_case "slot-bitmap terminal states" `Slow
            test_equiv_slot_bitmap;
          Alcotest.test_case "full package terminal states" `Slow
            test_equiv_combined;
          Alcotest.test_case "two threads, six ops, budgeted sweep" `Slow
            test_equiv_two_thread_budgeted;
        ] );
      ( "lsm",
        [
          Alcotest.test_case "lsm scope exhausts clean" `Slow
            test_lsm_scope_exhausts;
          Alcotest.test_case "manifest-before-seal found and replays" `Slow
            test_manifest_before_seal_found;
        ] );
      ( "detect",
        [
          Alcotest.test_case "detect scope exhausts clean" `Slow
            test_detect_scope_exhausts;
          Alcotest.test_case "two announcing clients, budgeted sweep" `Slow
            test_detect_two_thread_budgeted;
          Alcotest.test_case "response-before-log-persist found and replays"
            `Slow test_detect_response_fault_found;
        ] );
    ]
