(* Quickstart: lift a sequential hashmap into a persistent concurrent map
   with PREP-Buffered, run concurrent operations, power-fail, recover.

     dune exec examples/quickstart.exe *)

open Nvm
module Uc = Prep.Prep_uc.Make (Seqds.Hashmap)
module H = Seqds.Hashmap

let () =
  (* A simulated 2-socket machine and its memory (DRAM + NVM). *)
  let topology = Sim.Topology.{ sockets = 2; cores_per_socket = 4 } in
  let sim = Sim.create ~seed:2024L topology in
  let mem = Memory.make () in
  let uc_ref = ref None in

  ignore
    (Sim.spawn sim ~socket:0 (fun () ->
         let roots = Roots.make mem in
         (* PREP-Buffered: checkpoint every epsilon = 256 update ops. *)
         let cfg =
           Prep.Config.make ~mode:Prep.Config.Buffered ~log_size:4096
             ~epsilon:256 ~workers:4 ()
         in
         let uc = Uc.create mem roots cfg in
         uc_ref := Some uc;
         Uc.start_persistence uc;
         (* Four workers, one per core of socket 0, each inserting its own
            key range through ExecuteConcurrent. *)
         let finished = ref 0 in
         for w = 0 to 3 do
           Sim.spawn_here ~socket:0 ~core:w (fun () ->
               Uc.register_worker uc;
               for i = 0 to 499 do
                 ignore
                   (Uc.execute uc ~op:H.op_insert ~args:[| (w * 1000) + i; i |])
               done;
               incr finished)
         done;
         while !finished < 4 do
           Sim.tick 100_000
         done;
         Uc.register_worker uc;
         Printf.printf "before crash: size = %d\n"
           (Uc.execute uc ~op:H.op_size ~args:[||]);
         Uc.stop uc));
  (match Sim.run sim () with
   | `Done -> ()
   | `Cut _ -> failwith "unexpected cut");

  (* Power failure: caches and DRAM are gone, NVM media survives. *)
  Memory.crash mem;
  Context.reset ();
  Printf.printf "power failure!\n";

  (* Recovery in a fresh simulation (fresh threads, same NVM). *)
  let sim2 = Sim.create ~seed:2025L topology in
  ignore
    (Sim.spawn sim2 ~socket:0 (fun () ->
         let uc, report = Uc.recover (Option.get !uc_ref) in
         Printf.printf "recovered %d ops; lost %d completed ops (bound %d)\n"
           (List.length report.Prep.Prep_uc.applied)
           report.Prep.Prep_uc.lost_completed
           (256 + 4 - 1);
         Uc.register_worker uc;
         Uc.start_persistence uc;
         Printf.printf "after recovery: size = %d\n"
           (Uc.execute uc ~op:H.op_size ~args:[||]);
         (* the recovered object is fully usable *)
         ignore (Uc.execute uc ~op:H.op_insert ~args:[| 999_999; 1 |]);
         Printf.printf "insert after recovery: get -> %d\n"
           (Uc.execute uc ~op:H.op_get ~args:[| 999_999 |]);
         Uc.stop uc));
  (match Sim.run sim2 () with
   | `Done -> print_endline "quickstart done"
   | `Cut _ -> failwith "unexpected cut")
