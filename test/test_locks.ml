(* Tests for the trylock and reader-writer lock over simulated memory. *)

open Nvm
open Prep

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 }

let with_mem f =
  Sim.run_one (fun () ->
      let mem = Memory.make ~bg_period:0 () in
      let aid = Memory.new_arena mem ~kind:Memory.Dram ~home:0 in
      f mem (Memory.addr_of ~aid ~offset:8))

let test_trylock_basic () =
  with_mem (fun mem a ->
      let l = Locks.Trylock.make mem a in
      check_bool "acquire" true (Locks.Trylock.try_acquire l);
      check_bool "held" true (Locks.Trylock.held l);
      check_bool "second acquire fails" false (Locks.Trylock.try_acquire l);
      Locks.Trylock.release l;
      check_bool "released" false (Locks.Trylock.held l);
      check_bool "reacquire" true (Locks.Trylock.try_acquire l))

let test_rwlock_readers_share () =
  with_mem (fun mem a ->
      let l = Locks.Rwlock.make mem a in
      check_bool "reader 1" true (Locks.Rwlock.try_read_acquire l);
      check_bool "reader 2" true (Locks.Rwlock.try_read_acquire l);
      check_bool "writer blocked by readers" false
        (Locks.Rwlock.try_write_acquire l);
      Locks.Rwlock.read_release l;
      check_bool "writer still blocked" false (Locks.Rwlock.try_write_acquire l);
      Locks.Rwlock.read_release l;
      check_bool "writer now ok" true (Locks.Rwlock.try_write_acquire l);
      check_bool "reader blocked by writer" false
        (Locks.Rwlock.try_read_acquire l);
      Locks.Rwlock.write_release l;
      check_bool "reader ok again" true (Locks.Rwlock.try_read_acquire l))

(* Writers are mutually exclusive with everyone in simulated time, and a
   shared counter incremented non-atomically under the write lock must not
   lose updates. *)
let test_rwlock_writer_exclusion () =
  let sim = Sim.create ~seed:3L topology in
  let mem = Memory.make ~bg_period:0 () in
  let aid = Memory.new_arena mem ~kind:Memory.Dram ~home:0 in
  let lock_addr = Memory.addr_of ~aid ~offset:8 in
  let counter = Memory.addr_of ~aid ~offset:16 in
  let l = ref None in
  ignore (Sim.spawn sim ~socket:0 (fun () ->
      l := Some (Locks.Rwlock.make mem lock_addr)));
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  let sim = Sim.create ~seed:4L topology in
  let l = Option.get !l in
  for w = 0 to 7 do
    let socket, core = Sim.Topology.place topology w in
    ignore
      (Sim.spawn sim ~socket ~core (fun () ->
           for _ = 1 to 50 do
             Locks.Rwlock.write_acquire l;
             (* non-atomic read-modify-write: only safe under the lock *)
             let v = Memory.read mem counter in
             Sim.tick 30;
             Memory.write mem counter (v + 1);
             Locks.Rwlock.write_release l
           done))
  done;
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  check "no lost updates" 400 (Memory.peek mem counter)

(* Readers must never observe a writer's half-done update. *)
let test_rwlock_readers_see_consistent_pairs () =
  let sim = Sim.create ~seed:5L topology in
  let mem = Memory.make ~bg_period:0 () in
  let aid = Memory.new_arena mem ~kind:Memory.Dram ~home:0 in
  let lock_addr = Memory.addr_of ~aid ~offset:8 in
  let x = Memory.addr_of ~aid ~offset:16 in
  let y = Memory.addr_of ~aid ~offset:24 in
  let violations = ref 0 in
  let l = ref None in
  ignore (Sim.spawn sim ~socket:0 (fun () ->
      l := Some (Locks.Rwlock.make mem lock_addr)));
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  let l = Option.get !l in
  let sim = Sim.create ~seed:6L topology in
  (* writer keeps x = y, with a deliberate torn window inside the lock *)
  ignore
    (Sim.spawn sim ~socket:0 ~core:0 (fun () ->
         for i = 1 to 100 do
           Locks.Rwlock.write_acquire l;
           Memory.write mem x i;
           Sim.tick 100;
           Memory.write mem y i;
           Locks.Rwlock.write_release l
         done));
  for w = 1 to 6 do
    let socket, core = Sim.Topology.place topology w in
    ignore
      (Sim.spawn sim ~socket ~core (fun () ->
           for _ = 1 to 100 do
             Locks.Rwlock.read_acquire l;
             let xv = Memory.read mem x in
             let yv = Memory.read mem y in
             if xv <> yv then incr violations;
             Locks.Rwlock.read_release l
           done))
  done;
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  check "no torn reads" 0 !violations

(* The combiner trylock pattern: many contenders, exactly one combiner at
   a time, everyone eventually becomes one. *)
let test_trylock_combiner_pattern () =
  let sim = Sim.create ~seed:8L topology in
  let mem = Memory.make ~bg_period:0 () in
  let aid = Memory.new_arena mem ~kind:Memory.Dram ~home:0 in
  let l = ref None in
  ignore (Sim.spawn sim ~socket:0 (fun () ->
      l := Some (Locks.Trylock.make mem (Memory.addr_of ~aid ~offset:8))));
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  let l = Option.get !l in
  let sim = Sim.create ~seed:9L topology in
  let combines = Array.make 8 0 in
  for w = 0 to 7 do
    let socket, core = Sim.Topology.place topology w in
    ignore
      (Sim.spawn sim ~socket ~core (fun () ->
           let remaining = ref 20 in
           while !remaining > 0 do
             if Locks.Trylock.try_acquire l then begin
               Sim.tick 200;
               combines.(w) <- combines.(w) + 1;
               decr remaining;
               Locks.Trylock.release l
             end
             else Sim.spin ()
           done))
  done;
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  Array.iteri
    (fun w n -> check (Printf.sprintf "worker %d combined" w) 20 n)
    combines

(* ---- distributed reader-writer lock ---- *)

module D = Locks.Dist_rwlock

let test_dist_basic () =
  with_mem (fun mem a ->
      (* [with_mem] hands out offset 8 = exactly one cache line in, so the
         per-core flag lines are naturally aligned *)
      let l = D.make mem a ~ncores:4 in
      check "writer word clear" 0 (D.peek_writer l);
      check_bool "reader acquires" true (D.try_read_acquire l);
      check "flag raised" 1 (D.peek_flag l 0);
      D.read_release l;
      check "flag lowered" 0 (D.peek_flag l 0);
      D.write_acquire l;
      check "writer word taken" (-1) (D.peek_writer l);
      check_bool "reader blocked by writer" false (D.try_read_acquire l);
      check "failed reader left no flag" 0 (D.peek_flag l 0);
      D.write_release l;
      check "writer word released" 0 (D.peek_writer l);
      check_bool "reader ok again" true (D.try_read_acquire l);
      check "both successful read acquires counted" 2 l.D.read_acquires;
      check "one writer sweep counted" 1 l.D.writer_sweeps)

(* One simulated machine per property sample: 1 socket x 8 cores so every
   reader fiber owns a distinct per-core flag line (as in PREP, where only
   same-socket threads read-acquire their replica's lock). *)
let dist_topology = Sim.Topology.{ sockets = 1; cores_per_socket = 8 }

let make_dist_lock mem ~ncores =
  let sim = Sim.create ~seed:77L dist_topology in
  let aid = Memory.new_arena mem ~kind:Memory.Dram ~home:0 in
  let a = Memory.addr_of ~aid ~offset:Memory.line_words in
  let l = ref None in
  ignore (Sim.spawn sim ~socket:0 (fun () -> l := Some (D.make mem a ~ncores)));
  (match Sim.run sim () with `Done -> () | `Cut _ -> Alcotest.fail "cut");
  Option.get !l

(* Property: under randomized preemption, writers exclude both readers and
   other writers, readers never see a torn write, and no update is lost. *)
let prop_dist_exclusion seed =
  let mem = Memory.make ~bg_period:0 () in
  let l = make_dist_lock mem ~ncores:8 in
  let aid = Memory.new_arena mem ~kind:Memory.Dram ~home:0 in
  let x = Memory.addr_of ~aid ~offset:16 in
  let y = Memory.addr_of ~aid ~offset:24 in
  let sim =
    Sim.create ~seed:(Int64.of_int (seed + 1)) ~preempt_prob:0.05 dist_topology
  in
  let writers_in = ref 0 and readers_in = ref 0 and violations = ref 0 in
  let writer_iters = 15 and reader_iters = 25 in
  (* writers on cores 0-3 *)
  for core = 0 to 3 do
    ignore
      (Sim.spawn sim ~socket:0 ~core (fun () ->
           for _ = 1 to writer_iters do
             D.write_acquire l;
             if !writers_in > 0 || !readers_in > 0 then incr violations;
             incr writers_in;
             (* torn, non-atomic x = y increment: only safe when exclusive *)
             let v = Memory.read mem x in
             Sim.tick 60;
             Memory.write mem x (v + 1);
             Sim.tick 60;
             Memory.write mem y (v + 1);
             decr writers_in;
             D.write_release l
           done))
  done;
  (* readers on cores 4-7 *)
  for core = 4 to 7 do
    ignore
      (Sim.spawn sim ~socket:0 ~core (fun () ->
           for _ = 1 to reader_iters do
             D.read_acquire l;
             if !writers_in > 0 then incr violations;
             incr readers_in;
             let xv = Memory.read mem x in
             Sim.tick 40;
             let yv = Memory.read mem y in
             if xv <> yv then incr violations;
             decr readers_in;
             D.read_release l
           done))
  done;
  (match Sim.run sim () with
   | `Done -> ()
   | `Cut _ -> QCheck.Test.fail_report "dist lock wedged");
  !violations = 0
  && Memory.peek mem x = 4 * writer_iters
  && Memory.peek mem y = 4 * writer_iters

(* Property: when every critical section has exited, no reader flag is left
   raised and the writer word is free — a lost flag would wedge the next
   writer's sweep forever. Also checks the acquisition counters are exact:
   every read_acquire accounts for exactly one successful flag-raise. *)
let prop_dist_no_lost_flags seed =
  let mem = Memory.make ~bg_period:0 () in
  let l = make_dist_lock mem ~ncores:8 in
  let sim =
    Sim.create ~seed:(Int64.of_int (seed + 1)) ~preempt_prob:0.08 dist_topology
  in
  let reader_iters = 10 + (seed mod 20) in
  let writer_iters = 1 + (seed mod 5) in
  (* readers on cores 0-6; the writer shares core 7 (writers never touch a
     per-core flag, so core sharing is safe for them) *)
  for core = 0 to 6 do
    ignore
      (Sim.spawn sim ~socket:0 ~core (fun () ->
           for _ = 1 to reader_iters do
             D.read_acquire l;
             Sim.tick 25;
             D.read_release l
           done))
  done;
  ignore
    (Sim.spawn sim ~socket:0 ~core:7 (fun () ->
         for _ = 1 to writer_iters do
           D.write_acquire l;
           Sim.tick 80;
           D.write_release l
         done));
  (match Sim.run sim () with
   | `Done -> ()
   | `Cut _ -> QCheck.Test.fail_report "dist lock wedged");
  let flags_clear = ref true in
  for i = 0 to 7 do
    if D.peek_flag l i <> 0 then flags_clear := false
  done;
  !flags_clear && D.peek_writer l = 0
  && l.D.read_acquires = 7 * reader_iters
  && l.D.writer_sweeps = writer_iters

let qtest name count prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count QCheck.(int_range 0 10_000) prop)

let () =
  Alcotest.run "locks"
    [
      ( "trylock",
        [
          Alcotest.test_case "basic" `Quick test_trylock_basic;
          Alcotest.test_case "combiner pattern" `Quick test_trylock_combiner_pattern;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "readers share" `Quick test_rwlock_readers_share;
          Alcotest.test_case "writer exclusion" `Quick test_rwlock_writer_exclusion;
          Alcotest.test_case "consistent reads" `Quick
            test_rwlock_readers_see_consistent_pairs;
        ] );
      ( "dist-rwlock",
        [
          Alcotest.test_case "basic" `Quick test_dist_basic;
          qtest "writer exclusion under preemption" 20 prop_dist_exclusion;
          qtest "no lost reader flags" 20 prop_dist_no_lost_flags;
        ] );
    ]
