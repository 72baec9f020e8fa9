(* Tests for the simulated NVM: cache model, persistence instructions,
   crash semantics, allocators, allocator-swap context, roots. *)

open Nvm

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Fresh memory with background flushes disabled unless a test wants them. *)
let fresh ?(bg_period = 0) () = Memory.make ~bg_period ()

let in_sim f = Sim.run_one f

(* a derived flush count of [m] (a bench-record flush key) *)
let count m key = Telemetry.Json.derived (Memory.counters m) key

(* ---- basic load/store ---- *)

let test_read_write () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Dram ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 123;
      check "read back" 123 (Memory.read m a);
      check "uninitialised is zero" 0 (Memory.read m (a + 1)))

let test_cas_semantics () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Dram ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 5;
      check_bool "cas succeeds" true (Memory.cas m a ~expected:5 ~desired:9);
      check "new value" 9 (Memory.read m a);
      check_bool "cas fails" false (Memory.cas m a ~expected:5 ~desired:11);
      check "unchanged" 9 (Memory.read m a))

let test_faa () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Dram ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      check "faa returns old" 0 (Memory.faa m a 3);
      check "faa returns old 2" 3 (Memory.faa m a 4);
      check "value" 7 (Memory.read m a))

(* ---- persistence semantics ---- *)

let test_unflushed_write_lost_on_crash () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 77;
      Memory.crash m;
      check "lost" 0 (Memory.peek m a))

let test_clwb_alone_not_durable () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 77;
      Memory.clwb ~site:Persist.Test m a;
      (* no fence: the write-back is still pending *)
      Memory.crash m;
      check "clwb without sfence lost" 0 (Memory.peek m a))

let test_clwb_sfence_durable () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 77;
      Memory.clwb ~site:Persist.Test m a;
      Memory.sfence ~site:Persist.Test m;
      Memory.crash m;
      check "durable" 77 (Memory.peek m a))

let test_clflush_durable_immediately () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 42;
      Memory.clflush ~site:Persist.Test m a;
      Memory.crash m;
      check "durable" 42 (Memory.peek m a))

let test_clwb_captures_at_call_time () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 1;
      Memory.clwb ~site:Persist.Test m a;
      Memory.write m a 2;
      (* second write re-dirties the line after the clwb captured value 1 *)
      Memory.sfence ~site:Persist.Test m;
      Memory.crash m;
      check "fence persists captured value" 1 (Memory.peek m a))

let test_whole_line_flushed () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let base = Memory.addr_of ~aid ~offset:16 in
      (* two words on the same 8-word line *)
      Memory.write m base 5;
      Memory.write m (base + 3) 6;
      Memory.clflush ~site:Persist.Test m base;
      Memory.crash m;
      check "word 0" 5 (Memory.peek m base);
      check "word 3 same line" 6 (Memory.peek m (base + 3)))

let test_wbinvd_flushes_own_socket_only () =
  let m = fresh () in
  let sim = Sim.create Sim.Topology.default in
  let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
  let a0 = Memory.addr_of ~aid ~offset:8 in
  let a1 = Memory.addr_of ~aid ~offset:1024 in
  (* socket 0 dirties a0; socket 1 dirties a1 and runs WBINVD *)
  ignore (Sim.spawn sim ~socket:0 (fun () -> Memory.write m a0 10));
  ignore
    (Sim.spawn sim ~socket:1 (fun () ->
         Memory.write m a1 20;
         Sim.tick 10_000 (* let socket 0's write land first *);
         Memory.wbinvd ~site:Persist.Test m));
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  Memory.crash m;
  check "other socket's line not flushed" 0 (Memory.peek m a0);
  check "own line flushed" 20 (Memory.peek m a1)

let test_dram_gone_after_crash () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Dram ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 99;
      Memory.crash m;
      check "dram zeroed" 0 (Memory.peek m a))

let test_background_flush_persists_sometimes () =
  in_sim (fun () ->
      let m = fresh ~bg_period:10 () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      (* hammer many distinct lines; with mean period 10 some must land *)
      for i = 0 to 499 do
        Memory.write m (Memory.addr_of ~aid ~offset:(8 * (i + 1))) (i + 1)
      done;
      check_bool "some background flushes happened" true
        (count m "bg_flushes" > 0);
      Memory.crash m;
      let survived = ref 0 in
      for i = 0 to 499 do
        if Memory.peek m (Memory.addr_of ~aid ~offset:(8 * (i + 1))) = i + 1
        then incr survived
      done;
      check_bool "a strict subset survived" true
        (!survived > 0 && !survived < 500))

let test_crash_resets_coherent_view_to_media () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 1;
      Memory.clflush ~site:Persist.Test m a;
      Memory.write m a 2 (* newer, unflushed *);
      check "coherent view sees 2" 2 (Memory.read m a);
      Memory.crash m;
      check "recovered view sees persisted 1" 1 (Memory.read m a))

let test_flush_arena () =
  in_sim (fun () ->
      let m = fresh () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      for i = 1 to 100 do
        Memory.write m (Memory.addr_of ~aid ~offset:(8 * i)) i
      done;
      Memory.flush_arena ~site:Persist.Test m aid;
      Memory.sfence ~site:Persist.Test m;
      Memory.crash m;
      let ok = ref true in
      for i = 1 to 100 do
        if Memory.peek m (Memory.addr_of ~aid ~offset:(8 * i)) <> i then
          ok := false
      done;
      check_bool "all persisted" true !ok)

(* ---- allocator ---- *)

let test_alloc_zeroed_and_disjoint () =
  in_sim (fun () ->
      let m = fresh () in
      let al = Alloc.create_volatile m ~home:0 in
      let a = Alloc.alloc al 10 and b = Alloc.alloc al 10 in
      check_bool "disjoint" true (abs (a - b) >= 10);
      for i = 0 to 9 do
        Memory.write m (a + i) (i + 1)
      done;
      check "b untouched" 0 (Memory.peek m b);
      check_bool "never null" true (a <> Memory.null && b <> Memory.null))

let test_alloc_free_reuse_scrubbed () =
  in_sim (fun () ->
      let m = fresh () in
      let al = Alloc.create_volatile m ~home:0 in
      let a = Alloc.alloc al 4 in
      Memory.write m a 999;
      Alloc.free al a 4;
      let b = Alloc.alloc al 4 in
      check "same block reused" a b;
      check "scrubbed" 0 (Memory.peek m b))

let test_alloc_grows_arenas () =
  in_sim (fun () ->
      let m = fresh () in
      let al = Alloc.create_volatile m ~home:0 in
      let before = Memory.arena_count m in
      (* allocate more than one arena's worth *)
      for _ = 1 to (2 * Memory.arena_words / 128) + 2 do
        ignore (Alloc.alloc al 128)
      done;
      check_bool "new arenas created" true (Memory.arena_count m > before))

let test_persistent_alloc_addresses_survive () =
  in_sim (fun () ->
      let m = fresh () in
      let al = Alloc.create_persistent m ~home:0 in
      let a = Alloc.alloc al 4 in
      Memory.write m a 31337;
      Memory.clflush ~site:Persist.Test m a;
      Memory.crash m;
      check "persistent data still at same address" 31337 (Memory.peek m a))

(* ---- context / allocator swap ---- *)

let test_context_swap () =
  in_sim (fun () ->
      let m = fresh () in
      let vol = Alloc.create_volatile m ~home:0 in
      let pers = Alloc.create_persistent m ~home:0 in
      Context.bind ~default:vol ~persistent:pers ();
      let a = Context.alloc 4 in
      check_bool "default allocation is DRAM" false (Memory.is_nvm m a);
      let b = Context.with_persistent (fun () -> Context.alloc 4) in
      check_bool "swapped allocation is NVM" true (Memory.is_nvm m b);
      let c = Context.alloc 4 in
      check_bool "flag restored" false (Memory.is_nvm m c);
      Context.reset ())

let test_context_nested_restore () =
  in_sim (fun () ->
      let m = fresh () in
      let vol = Alloc.create_volatile m ~home:0 in
      let pers = Alloc.create_persistent m ~home:0 in
      Context.bind ~default:vol ~persistent:pers ();
      Context.with_persistent (fun () ->
          Context.with_persistent (fun () -> ());
          let a = Context.alloc 4 in
          check_bool "still persistent after inner exit" true
            (Memory.is_nvm m a));
      Context.reset ())

(* ---- roots ---- *)

let test_roots_survive_crash () =
  in_sim (fun () ->
      let m = fresh () in
      let roots = Roots.make m in
      Roots.set roots 1 4242;
      Roots.set_unflushed roots 2 17;
      Memory.crash m;
      check "flushed root recovered" 4242 (Roots.get roots 1);
      check "unflushed root lost" 0 (Roots.get roots 2))

(* A CAS-based lock must provide mutual exclusion *in simulated time*:
   critical-section intervals of different fibers never overlap. This
   guards the scheduler's causality rule (a fiber only executes while it
   is the earliest runnable one). *)
let test_cas_mutual_exclusion_in_sim_time () =
  let m = fresh () in
  let topo = Sim.Topology.{ sockets = 2; cores_per_socket = 4 } in
  let sim = Sim.create ~seed:9L topo in
  let aid = Memory.new_arena m ~kind:Memory.Dram ~home:0 in
  let lock = Memory.addr_of ~aid ~offset:8 in
  let intervals = ref [] in
  for w = 0 to 7 do
    let socket, core = Sim.Topology.place topo w in
    ignore
      (Sim.spawn sim ~socket ~core (fun () ->
           let rng = Sim.fiber_rng () in
           for _ = 1 to 30 do
             while not (Memory.cas m lock ~expected:0 ~desired:1) do
               Sim.spin ()
             done;
             let enter = Sim.now () in
             Sim.tick (50 + Sim.Rng.int rng 300);
             let exit_ = Sim.now () in
             Memory.write m lock 0;
             intervals := (enter, exit_, w) :: !intervals
           done))
  done;
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  let sorted = List.sort compare !intervals in
  let rec no_overlap = function
    | (_, e1, _) :: ((s2, _, _) :: _ as rest) ->
      if s2 < e1 then
        Alcotest.failf "critical sections overlap: exit %d vs enter %d" e1 s2;
      no_overlap rest
    | _ -> ()
  in
  no_overlap sorted;
  check "all critical sections recorded" 240 (List.length sorted)

(* ---- FliT flush elimination ---- *)

let fresh_flit ?(bg_period = 0) () = Memory.make ~bg_period ~flit:true ()

let test_flit_clean_clwb_elided () =
  in_sim (fun () ->
      let m = fresh_flit () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 42;
      Memory.clwb ~site:Persist.Test m a;
      Memory.sfence ~site:Persist.Test m;
      check "first clwb issued" 1 (count m "clwb");
      let media_before = Array.init 8 (fun i -> Memory.peek_media m (a - (a mod 8) + i)) in
      let t0 = Sim.now () in
      Memory.clwb ~site:Persist.Test m a;
      let dt = Sim.now () - t0 in
      let media_after = Array.init 8 (fun i -> Memory.peek_media m (a - (a mod 8) + i)) in
      check "clwb on clean line elided" 1 (count m "clwb_elided");
      check "no new write-back issued" 1 (count m "clwb");
      check_bool "media unchanged" true (media_before = media_after);
      check "tag check is cheap" (Sim.costs ()).Sim.Costs.flush_tag_check dt;
      Memory.crash m;
      check "still durable" 42 (Memory.peek m a))

let test_flit_clwb_coalesces () =
  in_sim (fun () ->
      let m = fresh_flit () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 1;
      Memory.clwb ~site:Persist.Test m a;
      Memory.write m a 2;
      Memory.clwb ~site:Persist.Test m a;
      check "one real write-back" 1 (count m "clwb");
      check "second coalesced into WPQ entry" 1 (count m "clwb_coalesced");
      Memory.sfence ~site:Persist.Test m;
      Memory.crash m;
      check "newest capture wins" 2 (Memory.peek m a))

let test_flit_empty_sfence_free () =
  in_sim (fun () ->
      let m = fresh_flit () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      let t0 = Sim.now () in
      Memory.sfence ~site:Persist.Test m;
      check "empty WPQ: no drain cost" 0 (Sim.now () - t0);
      check "counted as elided" 1 (count m "sfence_elided");
      (* a fence with work still pays *)
      Memory.write m a 9;
      Memory.clwb ~site:Persist.Test m a;
      let t1 = Sim.now () in
      Memory.sfence ~site:Persist.Test m;
      check_bool "non-empty WPQ charges" true (Sim.now () - t1 > 0);
      check "real fence counted" 1 (count m "sfence"))

let test_flit_clflush_elided_when_persisted () =
  in_sim (fun () ->
      let m = fresh_flit () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 5;
      Memory.clflush ~site:Persist.Test m a;
      Memory.clflush ~site:Persist.Test m a;
      check "one real clflush" 1 (count m "clflush");
      check "second elided" 1 (count m "clflush_elided");
      Memory.crash m;
      check "durable" 5 (Memory.peek m a))

let test_flit_no_stale_writeback_regression () =
  (* clwb captures v1; the line is then rewritten and clflushed (v2 on
     media). The stale queued capture must NOT be replayed by the fence —
     flit prunes a line's WPQ entry when the line is committed. *)
  in_sim (fun () ->
      let m = fresh_flit () in
      let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
      let a = Memory.addr_of ~aid ~offset:8 in
      Memory.write m a 1;
      Memory.clwb ~site:Persist.Test m a;
      Memory.write m a 2;
      Memory.clflush ~site:Persist.Test m a;
      Memory.sfence ~site:Persist.Test m;
      Memory.crash m;
      check "media not regressed to stale capture" 2 (Memory.peek m a))

(* Differential property: the same write/flush/fence sequence on a flit
   memory and a baseline memory must persist identical media, and every
   flush instruction must be accounted exactly once (issued, elided or
   coalesced). Rounds write a few words, write back touched lines (with
   duplicates, exercising elision) and fence only sometimes (leaving
   pending write-backs for the next round's clwb to coalesce with). *)
let prop_flit_media_matches_baseline =
  QCheck.Test.make ~count:100
    ~name:"flit: media and accounting match baseline across random rounds"
    QCheck.(
      small_list
        (triple (small_list (pair (int_bound 63) (int_bound 1000))) bool bool))
    (fun rounds ->
      Sim.run_one (fun () ->
          let run flit =
            let m = Memory.make ~bg_period:0 ~flit () in
            let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
            let addr off = Memory.addr_of ~aid ~offset:(8 + off) in
            List.iter
              (fun (writes, dup_clwb, fence) ->
                List.iter (fun (off, v) -> Memory.write m (addr off) v) writes;
                let reps = if dup_clwb then 2 else 1 in
                for _ = 1 to reps do
                  List.iter (fun (off, _) -> Memory.clwb ~site:Persist.Test m (addr off)) writes
                done;
                if fence then Memory.sfence ~site:Persist.Test m)
              rounds;
            Memory.crash m;
            let media =
              List.concat_map
                (fun (writes, _, _) ->
                  List.map (fun (off, _) -> Memory.peek m (addr off)) writes)
                rounds
            in
            (media, count m)
          in
          let media_b, sb = run false in
          let media_f, sf = run true in
          media_b = media_f
          && sf "clwb" + sf "clwb_elided" + sf "clwb_coalesced" = sb "clwb"
          && sf "sfence" + sf "sfence_elided" = sb "sfence"
          && sb "clwb_elided" = 0
          && sb "clwb_coalesced" = 0
          && sb "sfence_elided" = 0))

(* ---- snapshot / restore / reset ---- *)

(* Write [n] words spread over [aid]'s lines from [from] on; [stride]
   apart so the run touches many lines (and, under a background-flush
   period, draws from the flush stream many times). *)
let write_words m aid ~from ~n ~stride =
  for i = 0 to n - 1 do
    Memory.write m (Memory.addr_of ~aid ~offset:(8 + ((from + (i * stride)) mod 60_000))) (from + i + 1)
  done

(* Regression: [snapshot] must capture the background-flush random stream
   as well as its countdown, or the run after a [restore] flushes
   different lines than one that never took the detour. *)
let test_restore_rewinds_background_flush_stream () =
  in_sim (fun () ->
      let run ~interlude =
        let m = fresh ~bg_period:3 () in
        let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
        write_words m aid ~from:0 ~n:200 ~stride:8;
        if interlude then begin
          let s = Memory.snapshot m in
          write_words m aid ~from:5_000 ~n:100 ~stride:8;
          Memory.restore m s
        end;
        write_words m aid ~from:10_000 ~n:200 ~stride:8;
        Memory.media_hash m
      in
      check "media as if the interlude never happened" (run ~interlude:false)
        (run ~interlude:true))

(* The value and media fingerprints recomputed from scratch over every
   word of every live arena. *)
let hashes_from_scratch m =
  let v = ref 0 and md = ref 0 in
  for aid = 0 to Memory.arena_count m - 1 do
    for offset = 0 to Memory.arena_words - 1 do
      let addr = Memory.addr_of ~aid ~offset in
      v := !v lxor Memory.word_h addr (Memory.peek m addr);
      md := !md lxor Memory.word_h addr (Memory.peek_media m addr)
    done
  done;
  (!v, !md)

(* [b] (reset or restored) must be indistinguishable from [a] (fresh). *)
let check_same_memory label a b =
  let c what x y = check (label ^ ": " ^ what) x y in
  c "arena count" (Memory.arena_count a) (Memory.arena_count b);
  c "op index" (Memory.op_index a) (Memory.op_index b);
  c "value hash" (Memory.value_hash a) (Memory.value_hash b);
  c "media hash" (Memory.media_hash a) (Memory.media_hash b);
  c "dirty hash" (Memory.dirty_hash a) (Memory.dirty_hash b);
  c "wpq hash" (Memory.wpq_hash a) (Memory.wpq_hash b);
  Alcotest.(check (list int))
    (label ^ ": dirty NVM lines")
    (Memory.dirty_nvm_line_keys a) (Memory.dirty_nvm_line_keys b);
  let mismatches = ref 0 in
  for aid = 0 to Memory.arena_count a - 1 do
    let base = Memory.addr_of ~aid ~offset:0 in
    check_bool (label ^ ": arena kind") (Memory.is_nvm a base) (Memory.is_nvm b base);
    for offset = 0 to Memory.arena_words - 1 do
      let addr = Memory.addr_of ~aid ~offset in
      if Memory.peek a addr <> Memory.peek b addr
         || Memory.peek_media a addr <> Memory.peek_media b addr
      then incr mismatches
    done
  done;
  c "words differing in values or media" 0 !mismatches;
  let v, md = hashes_from_scratch b in
  c "value hash recomputed from scratch" v (Memory.value_hash b);
  c "media hash recomputed from scratch" md (Memory.media_hash b)

(* The ops both memories run after the reset (or restore): arenas of
   [kinds], writes, a fenced write-back of some lines, then unfenced
   write-backs and dirty lines left behind. *)
let drive m kinds =
  let aids = List.map (fun kind -> (Memory.new_arena m ~kind ~home:0, kind)) kinds in
  List.iteri
    (fun i (aid, kind) ->
      write_words m aid ~from:(i * 97) ~n:60 ~stride:13;
      if kind = Memory.Nvm then
        for k = 0 to 9 do
          Memory.clwb ~site:Persist.Test m (Memory.addr_of ~aid ~offset:(8 + (k * 40)))
        done)
    aids;
  Memory.sfence ~site:Persist.Test m;
  List.iteri
    (fun i (aid, kind) ->
      write_words m aid ~from:(1_000 + i) ~n:20 ~stride:29;
      if kind = Memory.Nvm then
        Memory.clwb ~site:Persist.Test m (Memory.addr_of ~aid ~offset:8))
    aids

let test_reset_equals_fresh () =
  in_sim (fun () ->
      let fresh_mem () = Memory.make ~seed:7L ~bg_period:5 () in
      let used = fresh_mem () in
      (* dirty [used] everywhere [reset] has to undo: far-reaching writes in
         DRAM and NVM arenas, persisted and pending lines, FliT mode, a
         policy, a crash hook and an access hook *)
      List.iter
        (fun kind ->
          let aid = Memory.new_arena used ~kind ~home:1 in
          write_words used aid ~from:3 ~n:400 ~stride:151;
          if kind = Memory.Nvm then
            Memory.clwb ~site:Persist.Test used (Memory.addr_of ~aid ~offset:8))
        [ Memory.Nvm; Memory.Dram; Memory.Nvm; Memory.Dram ];
      Memory.sfence ~site:Persist.Test used;
      write_words used 0 ~from:7 ~n:50 ~stride:211;
      Memory.set_flit used true;
      let p = Persist.default () in
      Persist.set p Persist.Test Persist.Elide;
      Memory.set_policy used p;
      Memory.set_crash_hook used (fun _ -> failwith "crash hook survived reset");
      Memory.set_access_hook used (fun _ _ _ _ -> failwith "access hook survived reset");
      Memory.reset used;
      let a = fresh_mem () in
      check_same_memory "just reset" a used;
      (* slot 0 reuses an NVM spare as DRAM, slot 1 a DRAM spare as NVM,
         slot 4 is new *)
      let kinds = [ Memory.Dram; Memory.Nvm; Memory.Nvm; Memory.Dram; Memory.Nvm ] in
      drive a kinds;
      drive used kinds;
      check_same_memory "after the same ops" a used)

let test_restore_equals_uninterrupted () =
  in_sim (fun () ->
      let mem () = Memory.make ~seed:9L ~bg_period:5 () in
      let a = mem () and b = mem () in
      drive a [ Memory.Nvm; Memory.Dram ];
      drive a [ Memory.Nvm ];
      drive b [ Memory.Nvm; Memory.Dram ];
      let older = Memory.snapshot b in
      drive b [ Memory.Nvm ];
      let s = Memory.snapshot b in
      (* the interlude writes past the snapshot's touched prefix of the
         live arenas, allocates (and dirties) arenas beyond them, crashes,
         and rewinds to an older snapshot whose arena count leaves slot 2
         to be reallocated as DRAM before [s] is restored *)
      write_words b 0 ~from:20_000 ~n:300 ~stride:97;
      write_words b 1 ~from:30_000 ~n:300 ~stride:89;
      drive b [ Memory.Dram; Memory.Nvm; Memory.Nvm ];
      Memory.crash b;
      Memory.restore b older;
      drive b [ Memory.Dram; Memory.Dram ];
      Memory.restore b s;
      check_same_memory "just restored" a b;
      (* the spares left by the interlude are reused with other kinds *)
      drive a [ Memory.Nvm; Memory.Dram; Memory.Dram ];
      drive b [ Memory.Nvm; Memory.Dram; Memory.Dram ];
      check_same_memory "after the same ops" a b)

(* ---- property tests ---- *)

let prop_flushed_equals_peek =
  QCheck.Test.make ~count:50 ~name:"flush then crash preserves all writes"
    QCheck.(small_list (pair (int_bound 500) (int_bound 10_000)))
    (fun writes ->
      Sim.run_one (fun () ->
          let m = fresh () in
          let aid = Memory.new_arena m ~kind:Memory.Nvm ~home:0 in
          List.iter
            (fun (off, v) ->
              Memory.write m (Memory.addr_of ~aid ~offset:(off + 8)) v)
            writes;
          List.iter
            (fun (off, _) ->
              Memory.clwb ~site:Persist.Test m (Memory.addr_of ~aid ~offset:(off + 8)))
            writes;
          Memory.sfence ~site:Persist.Test m;
          let expected =
            List.map
              (fun (off, _) -> Memory.peek m (Memory.addr_of ~aid ~offset:(off + 8)))
              writes
          in
          Memory.crash m;
          let got =
            List.map
              (fun (off, _) -> Memory.peek m (Memory.addr_of ~aid ~offset:(off + 8)))
              writes
          in
          expected = got))

let prop_alloc_blocks_disjoint =
  QCheck.Test.make ~count:50 ~name:"allocated blocks never overlap"
    QCheck.(small_list (int_range 1 64))
    (fun sizes ->
      Sim.run_one (fun () ->
          let m = fresh () in
          let al = Alloc.create_volatile m ~home:0 in
          let blocks = List.map (fun s -> (Alloc.alloc al s, s)) sizes in
          let rec disjoint = function
            | [] -> true
            | (a, sa) :: rest ->
              List.for_all (fun (b, sb) -> a + sa <= b || b + sb <= a) rest
              && disjoint rest
          in
          disjoint blocks))

let () =
  Alcotest.run "nvm"
    [
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_read_write;
          Alcotest.test_case "cas" `Quick test_cas_semantics;
          Alcotest.test_case "faa" `Quick test_faa;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "unflushed write lost" `Quick
            test_unflushed_write_lost_on_crash;
          Alcotest.test_case "clwb alone not durable" `Quick
            test_clwb_alone_not_durable;
          Alcotest.test_case "clwb+sfence durable" `Quick test_clwb_sfence_durable;
          Alcotest.test_case "clflush durable" `Quick
            test_clflush_durable_immediately;
          Alcotest.test_case "clwb captures at call time" `Quick
            test_clwb_captures_at_call_time;
          Alcotest.test_case "whole line flushed" `Quick test_whole_line_flushed;
          Alcotest.test_case "wbinvd own socket only" `Quick
            test_wbinvd_flushes_own_socket_only;
          Alcotest.test_case "dram gone after crash" `Quick
            test_dram_gone_after_crash;
          Alcotest.test_case "background flushes" `Quick
            test_background_flush_persists_sometimes;
          Alcotest.test_case "crash resets to media" `Quick
            test_crash_resets_coherent_view_to_media;
          Alcotest.test_case "flush arena" `Quick test_flush_arena;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "zeroed and disjoint" `Quick
            test_alloc_zeroed_and_disjoint;
          Alcotest.test_case "free/reuse scrubbed" `Quick
            test_alloc_free_reuse_scrubbed;
          Alcotest.test_case "grows arenas" `Quick test_alloc_grows_arenas;
          Alcotest.test_case "persistent addresses survive" `Quick
            test_persistent_alloc_addresses_survive;
        ] );
      ( "causality",
        [
          Alcotest.test_case "cas mutual exclusion in sim time" `Quick
            test_cas_mutual_exclusion_in_sim_time;
        ] );
      ( "context",
        [
          Alcotest.test_case "swap" `Quick test_context_swap;
          Alcotest.test_case "nested restore" `Quick test_context_nested_restore;
        ] );
      ( "roots", [ Alcotest.test_case "survive crash" `Quick test_roots_survive_crash ] );
      ( "flit",
        [
          Alcotest.test_case "clean clwb elided, media invariant" `Quick
            test_flit_clean_clwb_elided;
          Alcotest.test_case "clwb coalesces into pending entry" `Quick
            test_flit_clwb_coalesces;
          Alcotest.test_case "empty sfence free" `Quick
            test_flit_empty_sfence_free;
          Alcotest.test_case "clflush elided when persisted" `Quick
            test_flit_clflush_elided_when_persisted;
          Alcotest.test_case "no stale write-back after clflush" `Quick
            test_flit_no_stale_writeback_regression;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "restore rewinds background-flush stream" `Quick
            test_restore_rewinds_background_flush_stream;
          Alcotest.test_case "reset equals fresh" `Quick test_reset_equals_fresh;
          Alcotest.test_case "restore equals uninterrupted" `Quick
            test_restore_equals_uninterrupted;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_flushed_equals_peek;
          QCheck_alcotest.to_alcotest prop_alloc_blocks_disjoint;
          QCheck_alcotest.to_alcotest prop_flit_media_matches_baseline;
        ] );
    ]
