(** Simulated byte-addressable memory with an explicit cache model.

    The address space is divided into fixed-size arenas, each homed on a
    NUMA socket and backed by either DRAM (volatile) or NVM. All stores
    first take effect in the coherent view ([values]) and dirty their cache
    line; NVM arenas additionally carry a [media] array holding the last
    *persisted* value of every word. A line's contents reach media only via
    [clwb]+[sfence], [clflush], [wbinvd], or a random seeded *background
    flush* — the cache-coherence-induced write-backs the paper warns about
    (§2.2, §4.1). [crash] discards everything except media.

    Addresses are plain ints: [addr = arena_id * arena_words + offset].
    Address 0 is reserved and plays the role of the null pointer. *)

let arena_shift = 16
let arena_words = 1 lsl arena_shift (* 65536 words per arena *)
let line_words = 8
let lines_per_arena = arena_words / line_words

let null = 0

type kind = Dram | Nvm

type arena = {
  aid : int;
  mutable kind : kind;
  mutable home : int; (* socket the arena is homed on *)
  values : int array; (* coherent view, what loads observe *)
  mutable media : int array; (* persisted view; length 0 for DRAM arenas *)
  dirty : Bytes.t; (* per line: 0 = clean, 1 + socket = dirty in that socket's cache *)
  mutable hi : int;
      (* touched-line high-water mark: every line at or beyond [hi] is zero
         in [values], [media] and [dirty], so zeroing, copying and crashing
         an arena only has to cover lines [0, hi) *)
}

(* ---- counters ----

   Every event is counted once, into the registry captured at [make] (the
   ambient one, or a private one), through handles resolved there: a
   count and a simulated-ns total per primitive ([nvm.clwb] /
   [nvm.clwb_ns]), background flushes ([nvm.bg_flush]) and the dirty
   lines an arena walk writes back ([nvm.flush_arena_lines]). Per-site
   families ([nvm.clwb@log.persist_entry], [nvm.clflush_policy_elided@
   prep.init], ...; [Persist.split_counter] is the reader) resolve each
   site on first use: an emitted instruction records its count and
   simulated-ns share, each elision class a count under a metric naming
   the class. [Telemetry.Json.derived] turns these into the bench-record
   flush keys and the policy totals. Recording never ticks simulated
   time, so it cannot change a run's behaviour. *)

module R = Telemetry.Registry

type prim = { n : R.counter; ns : R.counter }

(* a flush/fence primitive <p>: [nvm.<p>], FliT's [nvm.<p>_elided], and
   the site families <p>, <p>_ns, <p>_policy_elided, <p>_flit_elided *)
type flush = {
  total : prim;
  elided : prim;
  at : R.family;
  ns_at : R.family;
  pol_at : R.family;
  flit_at : R.family;
}

type handles = {
  read : prim;
  write : prim;
  mirror_write : prim;
  scrub : prim;
  cas : prim;
  faa : prim;
  clwb : flush;
  clflush : flush;
  sfence : flush;
  wbinvd : flush;
  flush_arena : flush;
  clwb_coalesced : prim;  (* CLWB merged into a queued WPQ entry *)
  clflush_downgraded_at : R.family;  (* CLFLUSHes the policy made CLWBs *)
  sfence_deferred_at : R.family;  (* SFENCEs the policy left to the next *)
  bg_flush : R.counter;
  flush_arena_lines : R.counter;
}

let resolve_handles reg =
  let prim name =
    { n = R.counter reg (Printf.sprintf "nvm.%s" name);
      ns = R.counter reg (Printf.sprintf "nvm.%s_ns" name) }
  in
  let fam metric =
    R.family reg ~size:Persist.n_sites (fun i ->
        Printf.sprintf "nvm.%s@%s" metric (Persist.to_string Persist.all.(i)))
  in
  let flush p =
    { total = prim p; elided = prim (p ^ "_elided"); at = fam p;
      ns_at = fam (p ^ "_ns"); pol_at = fam (p ^ "_policy_elided");
      flit_at = fam (p ^ "_flit_elided") }
  in
  { read = prim "read"; write = prim "write";
    mirror_write = prim "mirror_write"; scrub = prim "scrub";
    cas = prim "cas"; faa = prim "faa";
    clwb = flush "clwb"; clflush = flush "clflush"; sfence = flush "sfence";
    wbinvd = flush "wbinvd"; flush_arena = flush "flush_arena";
    clwb_coalesced = prim "clwb_coalesced";
    clflush_downgraded_at = fam "clflush_downgraded";
    sfence_deferred_at = fam "sfence_deferred";
    bg_flush = R.counter reg "nvm.bg_flush";
    flush_arena_lines = R.counter reg "nvm.flush_arena_lines" }

let count p cost = R.incr p.n; R.add p.ns cost
let at f site = R.add_at f (Persist.index site) 1

(* an instruction that reached the bus at [site], charged [cost] *)
let emitted_at f site cost =
  R.add_at f.at (Persist.index site) 1;
  R.add_at f.ns_at (Persist.index site) cost

let emit f site cost = count f.total cost; emitted_at f site cost
let flit_elided f site cost = count f.elided cost; at f.flit_at site

type pending = { p_arena : int; p_line : int; p_words : int array }

let dirty_key aid line = (aid * lines_per_arena) + line

(* ---- incremental state hashing (model-checking support) ----

   The explorer (lib/check/explore.ml) deduplicates global states by a
   fingerprint of (coherent values, media, dirty map, write-pending queue).
   Recomputing those over every arena at every scheduling point would be
   quadratic, so each component is maintained *incrementally*: the value and
   media hashes are XORs of a per-word hash (zero words contribute nothing,
   so a fresh arena costs nothing), the dirty hash an XOR of per-line
   contributions, and the WPQ hash either a fold over the ordered list
   (non-flit: drain order matters) or an XOR over the keyed table (flit). *)

let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x1B03738712FAD5C9 in
  let x = x lxor (x lsr 27) in
  let x = x * 0x2545F4914F6CDD1D in
  x lxor (x lsr 31)

let h2 a b = mix (a + (mix b * 0x27D4EB2F165667C5))
let word_h addr v = if v = 0 then 0 else h2 addr v
let words_h key words = Array.fold_left h2 (mix key) words
let pending_entry_h key words = h2 key (words_h key words)

let dummy_arena =
  { aid = -1; kind = Dram; home = 0; values = [||]; media = [||];
    dirty = Bytes.create 0; hi = 0 }

let touch arena line = if line >= arena.hi then arena.hi <- line + 1

type t = {
  mutable m_arenas : arena array;
  mutable m_count : int;
  mutable m_pending : pending list;
  mutable m_flit : bool;
  m_pending_tbl : (int, int array) Hashtbl.t;
      (* flit-mode WPQ: dirty_key -> captured line words (newest capture wins) *)
  m_rng : Sim.Rng.t;
  m_seed : int64;
  m_flit_at_make : bool;
  m_bg_period : int;
  mutable m_countdown : int;
  m_reg : R.t;
  m_c : handles;
  mutable m_op_index : int;
  mutable m_crash_hook : (int -> unit) option;
  (* incremental state fingerprints, see the comment at [mix] *)
  mutable m_value_hash : int;
  mutable m_media_hash : int;
  mutable m_dirty_hash : int;
  mutable m_wpq_hash : int;
  mutable m_access_hook : (int -> int -> int -> bool -> int -> unit) option;
      (* called at the *effect* of every fiber-facing operation with
         (fid, dirty_key | -1 for whole-cache ops, word address | -1,
         is_write, value involved); the explorer derives per-step cache-line
         footprints and fine-grained state hashes from it *)
  mutable m_policy : Persist.policy;
      (* per-site persistency policy consulted by every flush/fence
         primitive before it emits; the all-[Emit] default reproduces the
         hardware instruction stream exactly as written *)
}

let initial_countdown bg_period = if bg_period = 0 then max_int else bg_period

let make ?(seed = 42L) ?(bg_period = 50_000) ?(flit = false) () =
  let reg = R.current_or_new () in
  {
    m_arenas = Array.make 64 dummy_arena;
    m_count = 0;
    m_pending = [];
    m_flit = flit;
    m_pending_tbl = Hashtbl.create 256;
    m_rng = Sim.Rng.create seed;
    m_seed = seed;
    m_flit_at_make = flit;
    m_bg_period = bg_period;
    m_countdown = initial_countdown bg_period;
    m_reg = reg;
    m_c = resolve_handles reg;
    m_op_index = 0;
    m_crash_hook = None;
    m_value_hash = 0;
    m_media_hash = 0;
    m_dirty_hash = 0;
    m_wpq_hash = 0;
    m_access_hook = None;
    m_policy = Persist.default ();
  }

(** A snapshot of this memory's counters — the one accessor for its
    counts, read through [Telemetry.Json.derived]. *)
let counters m = R.snapshot m.m_reg

(** The installed per-site persistency policy (all-[Emit] by default). *)
let policy m = m.m_policy

(** Install a per-site persistency policy. Every flush/fence primitive
    consults it before emitting: a policy-removed instruction charges no
    simulated time, takes no scheduling point and has no effect — it is
    gone from the instruction stream, which is exactly the static claim
    the [optimize-persist] oracle must then prove safe. Orthogonal to
    [set_flit]: FliT elides dynamically whatever the policy still emits. *)
let set_policy m p = m.m_policy <- p

let policy_action m site = Persist.get m.m_policy site

(** Enable/disable FliT-style flush tracking. In flit mode the write-pending
    queue is keyed by cache line, so a CLWB on a line that is already queued
    coalesces into the existing WPQ entry, a CLWB/CLFLUSH on a clean line
    whose media is current is a counted no-op, and an SFENCE with an empty
    WPQ charges no drain cost. Any in-flight pending write-backs survive the
    switch in either direction. *)
let wpq_hash_of_list pending =
  (* ordered: drain order decides which capture of a line reaches media last *)
  List.fold_right
    (fun p acc -> h2 (pending_entry_h (dirty_key p.p_arena p.p_line) p.p_words) acc)
    pending 0

let wpq_hash_of_tbl tbl =
  Hashtbl.fold (fun key words acc -> acc lxor pending_entry_h key words) tbl 0

let set_flit m on =
  if on && not m.m_flit then begin
    (* list -> table, oldest first so the newest capture of a line wins *)
    List.iter
      (fun p -> Hashtbl.replace m.m_pending_tbl (dirty_key p.p_arena p.p_line) p.p_words)
      (List.rev m.m_pending);
    m.m_pending <- [];
    m.m_wpq_hash <- wpq_hash_of_tbl m.m_pending_tbl
  end
  else if (not on) && m.m_flit then begin
    Hashtbl.iter
      (fun key words ->
        let aid = key / lines_per_arena and line = key mod lines_per_arena in
        m.m_pending <- { p_arena = aid; p_line = line; p_words = words } :: m.m_pending)
      m.m_pending_tbl;
    Hashtbl.reset m.m_pending_tbl;
    m.m_wpq_hash <- wpq_hash_of_list m.m_pending
  end;
  m.m_flit <- on

(* ---- crash-hook API (fuzzing instrumentation) ---- *)

(** Number of fiber-facing memory operations issued so far. Every load,
    store, CAS, FAA, scrub, flush and fence counts as one operation, so an
    operation index names one precise point in the global (simulated-time-
    ordered) sequence of memory events. *)
let op_index m = m.m_op_index

(** Install [hook], called with the operation index at the *start* of every
    fiber-facing operation — before the operation takes any effect. A hook
    that raises aborts the executing fiber mid-access, which models a
    full-system power failure immediately before that operation: the crash
    fuzzer uses this to cut a run at an exact memory-operation index rather
    than at a simulated time. *)
let set_crash_hook m hook = m.m_crash_hook <- Some hook

let clear_crash_hook m = m.m_crash_hook <- None

(* Every fiber-facing operation looks the running fiber [f] up once
   ([Sim.self]) and reads its costs, socket and dispatch mode from it. *)
let op_point m f =
  let i = m.m_op_index in
  m.m_op_index <- i + 1;
  (match m.m_crash_hook with None -> () | Some hook -> hook i);
  Sim.choice_point f

(* ---- access-footprint hook (model-checking instrumentation) ---- *)

(** Install [hook], called at the effect point of every fiber-facing
    operation with [(fid, key, addr, is_write, value)]: [fid] is the
    executing fiber, [key] the
    [dirty_key] of the touched cache line (or [-1] for operations with a
    whole-cache footprint: SFENCE, WBINVD, arena flushes), [addr] the
    word address involved ([-1] when the operation touches a whole line
    or cache rather than a word), [is_write] whether the operation can
    change persistent-visible state, and [value] the word read or written
    (0 for flush/fence ops). The explorer derives per-step footprints for
    DPOR-style sleep sets (line granularity, via [key]) and last-access
    state hashes (word granularity, via [addr]) from this. *)
let set_access_hook m hook = m.m_access_hook <- Some hook

let clear_access_hook m = m.m_access_hook <- None

let access_point m f key ~addr ~write v =
  match m.m_access_hook with None -> () | Some hook -> hook f.Sim.fid key addr write v

(* ---- state fingerprints (explorer) ---- *)

let value_hash m = m.m_value_hash
let media_hash m = m.m_media_hash
let dirty_hash m = m.m_dirty_hash
let wpq_hash m = m.m_wpq_hash

(* Zero lines [lo, arena.hi) of every array of [arena] and lower [hi] to
   [lo]. Leaves the fingerprints alone: callers only clear content that
   they are dropping from the memory's state anyway. *)
let clear_from arena lo =
  if arena.hi > lo then begin
    let w = lo * line_words and n = (arena.hi - lo) * line_words in
    Array.fill arena.values w n 0;
    if Array.length arena.media > 0 then Array.fill arena.media w n 0;
    Bytes.fill arena.dirty lo (arena.hi - lo) '\000';
    arena.hi <- lo
  end

(* Turn an all-zero arena into one of [kind] homed on [home]: an NVM arena
   keeps (or gets) a media array, a DRAM arena has none. *)
let retarget arena ~kind ~home =
  arena.kind <- kind;
  arena.home <- home;
  match kind with
  | Nvm -> if Array.length arena.media = 0 then arena.media <- Array.make arena_words 0
  | Dram -> arena.media <- [||]

(** Allocate a zeroed arena homed on [home]. Returns the arena id. An
    arena left beyond the live count by [restore] or [reset] is reused as
    a spare: only its touched lines are zeroed, so an arena is allocated
    once per memory, not once per run. *)
let new_arena m ~kind ~home =
  if m.m_count = Array.length m.m_arenas then begin
    let bigger = Array.make (2 * Array.length m.m_arenas) dummy_arena in
    Array.blit m.m_arenas 0 bigger 0 (Array.length m.m_arenas);
    m.m_arenas <- bigger
  end;
  let aid = m.m_count in
  let spare = m.m_arenas.(aid) in
  if spare == dummy_arena then
    m.m_arenas.(aid) <-
      {
        aid;
        kind;
        home;
        values = Array.make arena_words 0;
        media = (match kind with Nvm -> Array.make arena_words 0 | Dram -> [||]);
        dirty = Bytes.make lines_per_arena '\000';
        hi = 0;
      }
  else begin
    clear_from spare 0;
    retarget spare ~kind ~home
  end;
  m.m_count <- m.m_count + 1;
  aid

let arena_of_addr m addr =
  let aid = addr lsr arena_shift in
  if aid >= m.m_count then invalid_arg "Memory: address beyond allocated arenas";
  m.m_arenas.(aid)

let offset_of_addr addr = addr land (arena_words - 1)
let line_of_offset off = off / line_words
let addr_of ~aid ~offset = (aid lsl arena_shift) lor offset

let is_nvm m addr = (arena_of_addr m addr).kind = Nvm

(* Every mutation of [values]/[media] funnels through these two setters so
   the incremental fingerprints can never drift from the arrays. *)

let set_value m arena off v =
  let old = arena.values.(off) in
  if old <> v then begin
    touch arena (line_of_offset off);
    let addr = addr_of ~aid:arena.aid ~offset:off in
    m.m_value_hash <-
      m.m_value_hash lxor word_h addr old lxor word_h addr v;
    arena.values.(off) <- v
  end

let set_media_word m arena off v =
  let old = arena.media.(off) in
  if old <> v then begin
    touch arena (line_of_offset off);
    let addr = addr_of ~aid:arena.aid ~offset:off in
    m.m_media_hash <-
      m.m_media_hash lxor word_h addr old lxor word_h addr v;
    arena.media.(off) <- v
  end

(* ---- cost accounting ---- *)

let access_cost f arena ~line_dirty =
  let c = f.Sim.sim.Sim.costs in
  let base =
    if line_dirty then c.Sim.Costs.cache_access
    else
      match arena.kind with
      | Dram -> c.Sim.Costs.dram_access
      | Nvm -> c.Sim.Costs.nvm_read
  in
  let remote =
    if arena.home <> f.Sim.socket then c.Sim.Costs.remote_penalty else 0
  in
  base + remote

(* ---- line persistence ---- *)

let commit_line_to_media m arena line =
  if arena.kind = Nvm then begin
    let base = line * line_words in
    for i = 0 to line_words - 1 do
      set_media_word m arena (base + i) arena.values.(base + i)
    done
  end

let clear_dirty m arena line =
  let d = Bytes.get_uint8 arena.dirty line in
  if d <> 0 then begin
    let key = dirty_key arena.aid line in
    m.m_dirty_hash <- m.m_dirty_hash lxor h2 key d;
    Bytes.set_uint8 arena.dirty line 0
  end

let mark_dirty m arena line socket =
  let d = Bytes.get_uint8 arena.dirty line in
  if d <> socket + 1 then begin
    let key = dirty_key arena.aid line in
    if d <> 0 then m.m_dirty_hash <- m.m_dirty_hash lxor h2 key d;
    m.m_dirty_hash <- m.m_dirty_hash lxor h2 key (socket + 1);
    touch arena line;
    Bytes.set_uint8 arena.dirty line (socket + 1)
  end

(* In flit mode a committed line's WPQ entry is dropped: its capture is now
   stale-or-equal, and replaying it at the next fence could regress media
   behind a newer write-back (the stale-WPQ artifact FliT tracking avoids). *)
let flit_prune m arena line =
  if m.m_flit then begin
    let key = dirty_key arena.aid line in
    match Hashtbl.find_opt m.m_pending_tbl key with
    | None -> ()
    | Some words ->
      m.m_wpq_hash <- m.m_wpq_hash lxor pending_entry_h key words;
      Hashtbl.remove m.m_pending_tbl key
  end

let background_flush m arena line =
  R.incr m.m_c.bg_flush;
  commit_line_to_media m arena line;
  flit_prune m arena line;
  clear_dirty m arena line

let maybe_background_flush m arena line =
  if arena.kind = Nvm && m.m_bg_period > 0 then begin
    m.m_countdown <- m.m_countdown - 1;
    if m.m_countdown <= 0 then begin
      m.m_countdown <- 1 + Sim.Rng.int m.m_rng (2 * m.m_bg_period);
      background_flush m arena line
    end
  end

(* ---- fiber-facing operations (charge simulated time) ---- *)

let read m addr =
  let f = Sim.self () in
  op_point m f;
  let arena = arena_of_addr m addr in
  let off = offset_of_addr addr in
  let line = line_of_offset off in
  let line_dirty = Bytes.get_uint8 arena.dirty line <> 0 in
  let cost = access_cost f arena ~line_dirty in
  Sim.charge f cost;
  count m.m_c.read cost;
  let v = arena.values.(off) in
  access_point m f (dirty_key arena.aid line) ~addr ~write:false v;
  v

let write m addr v =
  let f = Sim.self () in
  op_point m f;
  let arena = arena_of_addr m addr in
  let off = offset_of_addr addr in
  let line = line_of_offset off in
  let cost = access_cost f arena ~line_dirty:true in
  Sim.charge f cost;
  count m.m_c.write cost;
  set_value m arena off v;
  mark_dirty m arena line f.Sim.socket;
  access_point m f (dirty_key arena.aid line) ~addr ~write:true v;
  maybe_background_flush m arena line

(** Store that duplicates a just-issued write into a DRAM shadow (the log
    mirror): the writer's cache already holds both lines, so the copy is
    charged the flat [mirror_write] cost instead of a full [access_cost]
    (in particular, no remote penalty — the mirror line rides along in the
    writer's store buffer). Semantically identical to [write]. *)
let mirror_write m addr v =
  let f = Sim.self () in
  op_point m f;
  let arena = arena_of_addr m addr in
  let off = offset_of_addr addr in
  let line = line_of_offset off in
  let cost = f.Sim.sim.Sim.costs.Sim.Costs.mirror_write in
  Sim.charge f cost;
  count m.m_c.mirror_write cost;
  set_value m arena off v;
  mark_dirty m arena line f.Sim.socket;
  access_point m f (dirty_key arena.aid line) ~addr ~write:true v;
  maybe_background_flush m arena line

(** Zero [size] words starting at [addr], as a memset would: the stores
    dirty their cache lines (so a later flush re-persists the zeros) but
    cost is charged per line rather than per word. Used by the allocator
    when recycling blocks. *)
let scrub m addr size =
  let f = Sim.self () in
  op_point m f;
  let arena = arena_of_addr m addr in
  let off = offset_of_addr addr in
  let first_line = line_of_offset off in
  let last_line = line_of_offset (off + size - 1) in
  let cost =
    (last_line - first_line + 1) * f.Sim.sim.Sim.costs.Sim.Costs.cache_access
  in
  Sim.charge f cost;
  count m.m_c.scrub cost;
  for i = off to off + size - 1 do
    set_value m arena i 0
  done;
  for line = first_line to last_line do
    mark_dirty m arena line f.Sim.socket;
    access_point m f (dirty_key arena.aid line)
      ~addr:(addr - off + (line * line_words)) ~write:true 0
  done

(** Atomic compare-and-swap. The cost is charged (and a scheduling point
    taken) *before* the read-modify-write, which is then indivisible. *)
let cas m addr ~expected ~desired =
  let f = Sim.self () in
  op_point m f;
  let arena = arena_of_addr m addr in
  let off = offset_of_addr addr in
  let line = line_of_offset off in
  let cost =
    f.Sim.sim.Sim.costs.Sim.Costs.cas + access_cost f arena ~line_dirty:true
  in
  Sim.charge f cost;
  count m.m_c.cas cost;
  (* the hook fires after the compare so a failed CAS registers as a plain
     read: it changes nothing, so treating it as a write would spuriously
     wake every parked fiber in the explorer's await machinery (two CAS
     spinners would then wake each other forever). Read-vs-write conflicts
     still give the sleep sets the dependency they need. *)
  if arena.values.(off) = expected then begin
    access_point m f (dirty_key arena.aid line) ~addr ~write:true expected;
    set_value m arena off desired;
    mark_dirty m arena line f.Sim.socket;
    maybe_background_flush m arena line;
    true
  end
  else begin
    access_point m f (dirty_key arena.aid line) ~addr ~write:false
      arena.values.(off);
    false
  end

(** Atomic fetch-and-add, used by reader counts in the reader-writer lock. *)
let faa m addr delta =
  let f = Sim.self () in
  op_point m f;
  let arena = arena_of_addr m addr in
  let off = offset_of_addr addr in
  let line = line_of_offset off in
  let cost =
    f.Sim.sim.Sim.costs.Sim.Costs.cas + access_cost f arena ~line_dirty:true
  in
  Sim.charge f cost;
  count m.m_c.faa cost;
  let old = arena.values.(off) in
  set_value m arena off (old + delta);
  mark_dirty m arena line f.Sim.socket;
  access_point m f (dirty_key arena.aid line) ~addr ~write:true old;
  old

(** Asynchronous write-back of the line containing [addr]. The captured
    line contents only reach media at the next [sfence] (or clflush /
    background flush), so a crash in between loses them. [site] is
    mandatory: every write-back belongs to exactly one [Persist.site],
    whose policy is consulted first — [Elide] removes the instruction
    entirely (no cost, no scheduling point, no effect). *)
let clwb ~site m addr =
  match policy_action m site with
  | Persist.Elide -> at m.m_c.clwb.pol_at site
  | Persist.Emit | Persist.Downgrade_to_clwb | Persist.Defer_to_next_fence ->
  let f = Sim.self () in
  op_point m f;
  let c = f.Sim.sim.Sim.costs in
  let arena = arena_of_addr m addr in
  if arena.kind <> Nvm then invalid_arg "Memory.clwb: not an NVM address";
  let line = line_of_offset (offset_of_addr addr) in
  let base = line * line_words in
  let key = dirty_key arena.aid line in
  if not m.m_flit then begin
    Sim.charge f c.Sim.Costs.clwb_line;
    emit m.m_c.clwb site c.Sim.Costs.clwb_line;
    let words = Array.sub arena.values base line_words in
    m.m_pending <- { p_arena = arena.aid; p_line = line; p_words = words } :: m.m_pending;
    m.m_wpq_hash <- h2 (pending_entry_h key words) m.m_wpq_hash;
    clear_dirty m arena line;
    access_point m f key ~addr:(-1) ~write:true 0
  end
  else begin
    if Bytes.get_uint8 arena.dirty line = 0 then begin
      (* clean line: media or the WPQ already holds the current contents —
         the flush tag says there is nothing to write back *)
      Sim.charge f c.Sim.Costs.flush_tag_check;
      flit_elided m.m_c.clwb site c.Sim.Costs.flush_tag_check;
      access_point m f key ~addr:(-1) ~write:false 0
    end
    else begin
      if Hashtbl.mem m.m_pending_tbl key then begin
        (* same line already queued: update the WPQ entry in place *)
        Sim.charge f c.Sim.Costs.clwb_merge;
        count m.m_c.clwb_coalesced c.Sim.Costs.clwb_merge;
        emitted_at m.m_c.clwb site c.Sim.Costs.clwb_merge
      end
      else begin
        Sim.charge f c.Sim.Costs.clwb_line;
        emit m.m_c.clwb site c.Sim.Costs.clwb_line
      end;
      (* capture after the tick (a yield point): a concurrent fence may have
         drained and pruned the looked-up entry meanwhile, so always
         (re-)queue the line's current contents rather than mutating a
         possibly-orphaned capture *)
      (match Hashtbl.find_opt m.m_pending_tbl key with
       | Some old -> m.m_wpq_hash <- m.m_wpq_hash lxor pending_entry_h key old
       | None -> ());
      let words = Array.sub arena.values base line_words in
      Hashtbl.replace m.m_pending_tbl key words;
      m.m_wpq_hash <- m.m_wpq_hash lxor pending_entry_h key words;
      clear_dirty m arena line;
      access_point m f key ~addr:(-1) ~write:true 0
    end
  end

(** Blocking flush: the line is persisted before the call returns.
    Policy: [Elide] removes the instruction; [Downgrade_to_clwb] (and
    [Defer_to_next_fence], which means the same thing for a blocking
    flush) replaces it with an asynchronous [clwb] of the same line, so
    the contents reach media only at the next emitted fence. Both the
    FliT clean-line elision and the policy classes are surfaced per site
    — the unified accounting [clwb] always had. *)
let clflush ~site m addr =
  match policy_action m site with
  | Persist.Elide -> at m.m_c.clflush.pol_at site
  | Persist.Downgrade_to_clwb | Persist.Defer_to_next_fence ->
    at m.m_c.clflush_downgraded_at site;
    clwb ~site m addr
  | Persist.Emit ->
  let f = Sim.self () in
  op_point m f;
  let c = f.Sim.sim.Sim.costs in
  let arena = arena_of_addr m addr in
  if arena.kind <> Nvm then invalid_arg "Memory.clflush: not an NVM address";
  let line = line_of_offset (offset_of_addr addr) in
  let key = dirty_key arena.aid line in
  if m.m_flit
     && Bytes.get_uint8 arena.dirty line = 0
     && not (Hashtbl.mem m.m_pending_tbl key)
  then begin
    (* clean and nothing queued: media already holds the line *)
    Sim.charge f c.Sim.Costs.flush_tag_check;
    flit_elided m.m_c.clflush site c.Sim.Costs.flush_tag_check;
    access_point m f key ~addr:(-1) ~write:false 0
  end
  else begin
    Sim.charge f c.Sim.Costs.clflush_line;
    emit m.m_c.clflush site c.Sim.Costs.clflush_line;
    commit_line_to_media m arena line;
    flit_prune m arena line;
    clear_dirty m arena line;
    access_point m f key ~addr:(-1) ~write:true 0
  end

(** Persistent fence: drains every pending [clwb]. *)
let drain_pending_words m aid line words =
  let arena = m.m_arenas.(aid) in
  if arena.kind = Nvm then begin
    let base = line * line_words in
    for i = 0 to line_words - 1 do
      set_media_word m arena (base + i) words.(i)
    done
  end

let sfence ~site m =
  match policy_action m site with
  | Persist.Elide ->
    (* the fence is gone; any queued write-backs stay pending and drain at
       the next emitted fence — or are lost to a crash, which is exactly
       the window the admission oracle has to clear *)
    at m.m_c.sfence.pol_at site
  | Persist.Defer_to_next_fence -> at m.m_c.sfence_deferred_at site
  | Persist.Emit | Persist.Downgrade_to_clwb ->
  let f = Sim.self () in
  op_point m f;
  let cost = f.Sim.sim.Sim.costs.Sim.Costs.sfence in
  if m.m_flit then begin
    if Hashtbl.length m.m_pending_tbl = 0 then begin
      (* empty WPQ: the fence retires immediately, no drain cost *)
      flit_elided m.m_c.sfence site 0;
      access_point m f (-1) ~addr:(-1) ~write:false 0
    end
    else begin
      Sim.charge f cost;
      emit m.m_c.sfence site cost;
      R.instant m.m_reg "sfence";
      Hashtbl.iter
        (fun key words ->
          drain_pending_words m (key / lines_per_arena) (key mod lines_per_arena)
            words)
        m.m_pending_tbl;
      Hashtbl.reset m.m_pending_tbl;
      m.m_wpq_hash <- 0;
      access_point m f (-1) ~addr:(-1) ~write:true 0
    end
  end
  else begin
    Sim.charge f cost;
    emit m.m_c.sfence site cost;
    R.instant m.m_reg "sfence";
    List.iter
      (fun p -> drain_pending_words m p.p_arena p.p_line p.p_words)
      (List.rev m.m_pending);
    m.m_pending <- [];
    m.m_wpq_hash <- 0;
    access_point m f (-1) ~addr:(-1) ~write:true 0
  end

(* [dirty_key]s of the dirty lines of the live arenas for which
   [keep arena dirty_byte] holds, in increasing key order: a scan of each
   arena's touched prefix. *)
let dirty_keys m keep =
  let acc = ref [] in
  for aid = m.m_count - 1 downto 0 do
    let arena = m.m_arenas.(aid) in
    for line = arena.hi - 1 downto 0 do
      let d = Bytes.get_uint8 arena.dirty line in
      if d <> 0 && keep arena d then acc := dirty_key aid line :: !acc
    done
  done;
  !acc

(** Write back and invalidate the executing socket's entire cache: every
    line dirtied by this socket is persisted (NVM) or merely cleaned
    (DRAM). Cost scales with the number of dirty lines, making this the
    expensive hammer the paper says it is. *)
let wbinvd ~site m =
  match policy_action m site with
  | Persist.Elide -> at m.m_c.wbinvd.pol_at site
  | Persist.Emit | Persist.Downgrade_to_clwb | Persist.Defer_to_next_fence ->
  let f = Sim.self () in
  op_point m f;
  let mine = f.Sim.socket + 1 in
  let keys = dirty_keys m (fun _ d -> d = mine) in
  let flushed = List.length keys in
  let c = f.Sim.sim.Sim.costs in
  let cost = c.Sim.Costs.wbinvd_base + (flushed * c.Sim.Costs.wbinvd_per_line) in
  Sim.charge f cost;
  emit m.m_c.wbinvd site cost;
  R.instant m.m_reg "wbinvd";
  List.iter
    (fun key ->
      let aid = key / lines_per_arena and line = key mod lines_per_arena in
      let arena = m.m_arenas.(aid) in
      commit_line_to_media m arena line;
      flit_prune m arena line;
      clear_dirty m arena line)
    keys;
  access_point m f (-1) ~addr:(-1) ~write:true 0

(** Write back every dirty line of arena [aid] to media (blocking).
    Used by CX-PUC's persist-the-whole-replica step: clean lines cost
    nothing, dirty lines cost one [clwb] each, plus one trailing fence. *)
let clean_line_flush_cost = 12
(* issuing CLWB for a line that turns out to be clean still costs the
   instruction; this is what makes walking a huge address range more
   expensive than WBINVD for large structures *)

let flush_arena ~site m aid =
  match policy_action m site with
  | Persist.Elide -> at m.m_c.flush_arena.pol_at site
  | Persist.Emit | Persist.Downgrade_to_clwb | Persist.Defer_to_next_fence ->
  let f = Sim.self () in
  op_point m f;
  let arena = m.m_arenas.(aid) in
  if arena.kind <> Nvm then invalid_arg "Memory.flush_arena: not an NVM arena";
  let c = f.Sim.sim.Sim.costs in
  let total = ref (lines_per_arena * clean_line_flush_cost) in
  Sim.charge f (lines_per_arena * clean_line_flush_cost);
  for line = 0 to lines_per_arena - 1 do
    if Bytes.get_uint8 arena.dirty line <> 0 then begin
      Sim.charge f c.Sim.Costs.clwb_line;
      total := !total + c.Sim.Costs.clwb_line;
      R.incr m.m_c.flush_arena_lines;
      commit_line_to_media m arena line;
      flit_prune m arena line;
      clear_dirty m arena line
    end
  done;
  emit m.m_c.flush_arena site !total;
  access_point m f (-1) ~addr:(-1) ~write:true 0

(* ---- crash and inspection (no simulated cost: harness-side) ---- *)

(** Full-system power failure: caches and DRAM vanish; only NVM media
    survives. The coherent view of every NVM arena is rebuilt from media;
    DRAM arenas are zeroed. *)
let crash m =
  R.instant m.m_reg "crash";
  for aid = 0 to m.m_count - 1 do
    let arena = m.m_arenas.(aid) in
    match arena.kind with
    | Nvm ->
      Array.blit arena.media 0 arena.values 0 (arena.hi * line_words);
      Bytes.fill arena.dirty 0 arena.hi '\000'
    | Dram -> clear_from arena 0
  done;
  m.m_pending <- [];
  Hashtbl.reset m.m_pending_tbl;
  (* post-crash the coherent view of NVM equals media and DRAM is all
     zeroes, so the value fingerprint collapses to the media fingerprint
     and the dirty/WPQ fingerprints to empty — no rescan needed *)
  m.m_value_hash <- m.m_media_hash;
  m.m_dirty_hash <- 0;
  m.m_wpq_hash <- 0

(** Read a word without charging simulated time (test/assertion helper). *)
let peek m addr = (arena_of_addr m addr).values.(offset_of_addr addr)

(** Read a word as it would be recovered after a crash right now. *)
let peek_media m addr =
  let arena = arena_of_addr m addr in
  match arena.kind with
  | Nvm -> arena.media.(offset_of_addr addr)
  | Dram -> 0

let arena_count m = m.m_count

(* ---- enumerable crash-set API (model checking) ----

   The random crash hook above cuts a run at *one* point with whatever the
   background flusher happened to persist. The explorer instead asks, at a
   chosen point: which media images are reachable by a crash *right now*?
   Answer: current media plus any subset of the dirty NVM lines that the
   cache could have written back first (the WPQ is volatile, exactly as in
   [crash]). These helpers enumerate that frontier: a sorted dirty-line
   list, an O(line) XOR delta per line for incremental dedup of subset
   images, a cost-free [commit_line] to realise a subset, and
   [snapshot]/[restore] so one run can branch into many crash checks and
   resume unharmed. *)

(** Sorted [dirty_key]s of every dirty NVM line. The order is the subset-
    mask convention shared by the explorer and its replay mode: bit [i] of
    a frontier mask refers to element [i] of this list. *)
let dirty_nvm_line_keys m = dirty_keys m (fun arena _ -> arena.kind = Nvm)

(** XOR delta that committing line [key]'s coherent contents to media would
    apply to [media_hash]. Lets the explorer fingerprint all 2^k subset
    images of k dirty lines in O(2^k) word-hashes via Gray-code order
    instead of O(2^k · k). *)
let line_commit_delta m key =
  let aid = key / lines_per_arena and line = key mod lines_per_arena in
  let arena = m.m_arenas.(aid) in
  let base = line * line_words in
  let d = ref 0 in
  for i = 0 to line_words - 1 do
    let off = base + i in
    if arena.values.(off) <> arena.media.(off) then begin
      let addr = addr_of ~aid ~offset:off in
      d := !d lxor word_h addr arena.values.(off)
           lxor word_h addr arena.media.(off)
    end
  done;
  !d

(** Commit line [key] to media without simulated cost: models the
    background flusher having persisted that line just before a crash.
    Leaves the dirty map alone — [crash] wipes it anyway. *)
let commit_line m key =
  commit_line_to_media m m.m_arenas.(key / lines_per_arena)
    (key mod lines_per_arena)

type snap = {
  s_count : int;
  s_shape : (kind * int) array;  (* kind and home of every live arena *)
  s_values : int array array;  (* the touched prefix of each arena *)
  s_media : int array array;
  s_dirty : Bytes.t array;  (* its length is the arena's [hi] *)
  s_pending : pending list;
  s_pending_tbl : (int, int array) Hashtbl.t;
  s_flit : bool;
  s_value_hash : int;
  s_media_hash : int;
  s_dirty_hash : int;
  s_wpq_hash : int;
  s_op_index : int;
  s_countdown : int;
  s_rng : int64;
}

(** Capture the complete simulated-memory state. Only each arena's touched
    prefix is copied, so a snapshot costs what the run has used, not 64 k
    words per arena. Pending-line captures are immutable once queued, so
    they are shared, not copied. *)
let snapshot m =
  let live f = Array.init m.m_count (fun i -> f m.m_arenas.(i)) in
  let words a = a.hi * line_words in
  {
    s_count = m.m_count;
    s_shape = live (fun a -> (a.kind, a.home));
    s_values = live (fun a -> Array.sub a.values 0 (words a));
    s_media =
      live (fun a ->
          if Array.length a.media = 0 then [||] else Array.sub a.media 0 (words a));
    s_dirty = live (fun a -> Bytes.sub a.dirty 0 a.hi);
    s_pending = m.m_pending;
    s_pending_tbl = Hashtbl.copy m.m_pending_tbl;
    s_flit = m.m_flit;
    s_value_hash = m.m_value_hash;
    s_media_hash = m.m_media_hash;
    s_dirty_hash = m.m_dirty_hash;
    s_wpq_hash = m.m_wpq_hash;
    s_op_index = m.m_op_index;
    s_countdown = m.m_countdown;
    s_rng = Sim.Rng.state m.m_rng;
  }

(** Restore a snapshot taken on this memory. Arenas allocated after the
    snapshot become unreachable again (the arena counter rewinds; they stay
    behind as spares for [new_arena]), and the background-flush countdown
    and random stream rewind with everything else, exactly as if the
    interlude never happened. A snapshot may be restored any number of
    times. *)
let restore m s =
  m.m_count <- s.s_count;
  for aid = 0 to s.s_count - 1 do
    let a = m.m_arenas.(aid) in
    let kind, home = s.s_shape.(aid) in
    if a.kind <> kind || a.home <> home then begin
      (* the slot was reallocated after a rewind to an older snapshot *)
      clear_from a 0;
      retarget a ~kind ~home
    end;
    let hi = Bytes.length s.s_dirty.(aid) in
    clear_from a hi;
    Array.blit s.s_values.(aid) 0 a.values 0 (hi * line_words);
    if kind = Nvm then Array.blit s.s_media.(aid) 0 a.media 0 (hi * line_words);
    Bytes.blit s.s_dirty.(aid) 0 a.dirty 0 hi;
    a.hi <- hi
  done;
  m.m_pending <- s.s_pending;
  Hashtbl.reset m.m_pending_tbl;
  Hashtbl.iter (fun k v -> Hashtbl.replace m.m_pending_tbl k v) s.s_pending_tbl;
  m.m_flit <- s.s_flit;
  m.m_value_hash <- s.s_value_hash;
  m.m_media_hash <- s.s_media_hash;
  m.m_dirty_hash <- s.s_dirty_hash;
  m.m_wpq_hash <- s.s_wpq_hash;
  m.m_op_index <- s.s_op_index;
  m.m_countdown <- s.s_countdown;
  Sim.Rng.set_state m.m_rng s.s_rng

(** Return [m] to exactly the state [make] produced it in, with the same
    seed, background-flush period and FliT flag: no live
    arenas, empty caches and write-pending queue, rewound random stream
    and operation index, no hooks, the default policy. The arenas stay
    behind as spares, so a caller that runs many short executions (the
    explorer re-runs its workload once per schedule) allocates them once.
    The counter handles are kept: counts keep accumulating into the
    registry captured at [make] (the explorer never reads its memory's
    counts). *)
let reset m =
  m.m_count <- 0;
  m.m_pending <- [];
  m.m_flit <- m.m_flit_at_make;
  Hashtbl.reset m.m_pending_tbl;
  Sim.Rng.set_state m.m_rng m.m_seed;
  m.m_countdown <- initial_countdown m.m_bg_period;
  m.m_op_index <- 0;
  m.m_crash_hook <- None;
  m.m_value_hash <- 0;
  m.m_media_hash <- 0;
  m.m_dirty_hash <- 0;
  m.m_wpq_hash <- 0;
  m.m_access_hook <- None;
  m.m_policy <- Persist.default ()
