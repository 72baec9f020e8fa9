(* Repeated power failures: the buffered-vs-durable trade-off, live.

   PREP-Buffered may lose up to epsilon + beta - 1 completed operations
   per crash (paper §5.1); PREP-Durable loses none (§5.2). This example
   runs the same update-heavy counter workload through both modes across
   a series of crashes and prints the per-crash loss accounting next to
   the paper's bound.

     dune exec examples/crash_recovery.exe *)

open Nvm
module Uc = Prep.Prep_uc.Make (Seqds.Hashmap)
module H = Seqds.Hashmap

let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 }
let beta = topology.Sim.Topology.cores_per_socket
let epsilon = 128
let crashes = 3

let run_mode mode =
  Printf.printf "\n%s (epsilon = %d, beta = %d):\n"
    (Prep.Config.mode_name mode) epsilon beta;
  let mem = Memory.make ~bg_period:5000 () in
  let seed = ref 100L in
  let next_seed () =
    seed := Int64.add !seed 1L;
    !seed
  in
  (* phase 0 creates the UC; afterwards we loop: run, crash, recover *)
  let uc = ref None in
  let sim0 = Sim.create ~seed:(next_seed ()) topology in
  ignore
    (Sim.spawn sim0 ~socket:0 (fun () ->
         let roots = Roots.make mem in
         let cfg =
           Prep.Config.make ~mode ~log_size:2048 ~epsilon ~workers:6 ()
         in
         uc := Some (Uc.create mem roots cfg)));
  (match Sim.run sim0 () with `Done -> () | `Cut _ -> failwith "cut");
  let total_lost = ref 0 in
  for crash = 1 to crashes do
    (* run an update-heavy phase, then pull the plug mid-flight *)
    let sim = Sim.create ~seed:(next_seed ()) topology in
    ignore
      (Sim.spawn sim ~socket:0 (fun () ->
           let u = Option.get !uc in
           Uc.start_persistence u;
           for w = 0 to 5 do
             let socket, core = Sim.Topology.place topology w in
             Sim.spawn_here ~socket ~core (fun () ->
                 Uc.register_worker u;
                 let rng = Sim.fiber_rng () in
                 for i = 0 to max_int - 1 do
                   let k = Sim.Rng.int rng 64 in
                   ignore (Uc.execute u ~op:H.op_insert ~args:[| k; i |])
                 done)
           done));
    (match Sim.run ~until:1_500_000 sim () with
     | `Cut _ -> ()
     | `Done -> failwith "workload ended early");
    Memory.crash mem;
    Context.reset ();
    let sim2 = Sim.create ~seed:(next_seed ()) topology in
    ignore
      (Sim.spawn sim2 ~socket:0 (fun () ->
           let u, report = Uc.recover (Option.get !uc) in
           let completed =
             List.length (Prep.Trace.completed_indexes (Uc.trace (Option.get !uc)))
           in
           total_lost := !total_lost + report.Prep.Prep_uc.lost_completed;
           Printf.printf
             "  crash %d: %5d completed ops, lost %3d (bound %d), prefix: %b\n"
             crash completed report.Prep.Prep_uc.lost_completed
             (epsilon + beta - 1) report.Prep.Prep_uc.contiguous_prefix;
           uc := Some u));
    (match Sim.run sim2 () with `Done -> () | `Cut _ -> failwith "cut")
  done;
  Printf.printf "  total lost over %d crashes: %d (bound %d)\n" crashes
    !total_lost
    (crashes * (epsilon + beta - 1))

let () =
  print_endline "Crash-loss accounting, PREP-Buffered vs PREP-Durable";
  run_mode Prep.Config.Buffered;
  run_mode Prep.Config.Durable;
  print_endline "\ncrash_recovery done"
