(** Copy-pasteable CLI invocations that replay a checker counterexample,
    rendered from the [Prep.Config.t] the checker ran plus its scope. Every
    printed repro — fuzz shrink results, explorer violations (single or
    sharded), optimize-persist rejections — comes from here, so the flags
    a repro carries are always the flags the failing run had. *)

let variant_name = function
  | Prep.Config.Volatile -> "volatile"
  | Prep.Config.Buffered -> "buffered"
  | Prep.Config.Durable -> "durable"

(* the gated layers, in the CLI's flag order *)
let layer_flags (cfg : Prep.Config.t) =
  String.concat ""
    [
      (if cfg.flit then " --flit" else "");
      (if cfg.dist_rw then " --dist-rw" else "");
      (if cfg.log_mirror then " --log-mirror" else "");
      (if cfg.slot_bitmap then " --slot-bitmap" else "");
      (if cfg.detect then " --detect" else "");
      (if cfg.lsm_ckpt then " --lsm-ckpt" else "");
    ]

let policy_flag (cfg : Prep.Config.t) =
  match cfg.persist_policy with
  | Some p when not (Nvm.Persist.is_default p) ->
    Printf.sprintf " --persist-policy \"%s\"" (Nvm.Persist.to_spec p)
  | Some _ | None -> ""

(** Replay of one fuzz episode. A sharded run also names its workload
    mix: [mix = (multi_pct, cross_pct)]. *)
let fuzz ~ds ?mix (cfg : Prep.Config.t) (ep : Fuzz.episode) =
  let shards =
    match mix with
    | Some (multi, cross) when cfg.shards > 1 ->
      Printf.sprintf " --shards %d --multi-pct %d --cross-pct %d" cfg.shards
        multi cross
    | _ -> ""
  in
  Printf.sprintf
    "dune exec bin/prep_cli.exe -- fuzz --variant %s --ds %s%s --threads %d \
     --epsilon %d --log-size %d --ops %d --seed %d --fault %s%s%s %s"
    (variant_name cfg.mode) ds shards ep.threads cfg.epsilon cfg.log_size
    ep.ops_per_worker ep.workload_seed
    (Prep.Config.fault_name cfg.fault)
    (layer_flags cfg) (policy_flag cfg)
    (Fuzz.crash_flag ep.crash)

(** Replay of one explored schedule: its decision trace and, for a crash
    violation, the (step, frontier mask) to crash at. [name_fault:false]
    leaves out [--fault] (optimize-persist's repros, whose runs are
    always fault-free, never carried it). *)
let explore ?(name_fault = true) ~ds (cfg : Prep.Config.t)
    (scope : Explore.scope) decisions crash =
  Printf.sprintf
    "dune exec bin/prep_cli.exe -- explore --variant %s --ds %s%s --threads \
     %d --ops %d --epsilon %d --log-size %d --seed %d --sockets %d --cores \
     %d%s%s%s%s%s --replay '%s'%s"
    (variant_name cfg.mode) ds
    (if cfg.shards > 1 then Printf.sprintf " --uc-shards %d" cfg.shards
     else "")
    scope.threads scope.ops_per_worker cfg.epsilon cfg.log_size scope.seed
    scope.sockets scope.cores_per_socket
    (if name_fault then " --fault " ^ Prep.Config.fault_name cfg.fault else "")
    (layer_flags cfg)
    (if cfg.lsm_ckpt && cfg.lsm_fanout <> 4 then
       Printf.sprintf " --lsm-fanout %d" cfg.lsm_fanout
     else "")
    (if scope.persistence then "" else " --no-persistence")
    (policy_flag cfg)
    (Explore.decisions_to_string decisions)
    (match crash with
     | None -> ""
     | Some (step, mask) ->
       Printf.sprintf " --crash-step %d --frontier %d" step mask)
