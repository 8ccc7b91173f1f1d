(* A compact CDCL core: two-watched-literal propagation, first-UIP
   learning with backjumping, Luby restarts, clauses added between
   solves. No clause deletion and no activity heuristic — the subsumption
   encoder wants a static, caller-controlled decision order so the
   first model is the one its enumeration semantics prescribe. *)

(* Literal encoding: [2v] is the positive, [2v+1] the negative literal
   of variable [v]. *)
let pos v = 2 * v
let neg v = (2 * v) + 1
let negate l = l lxor 1
let var_of l = l lsr 1

type clause = { lits : int array }

(* Watch lists as growable vectors, filtered in place during
   propagation (MiniSat-style) — cons-rebuilt immutable lists showed up
   as the dominant propagation cost on bottom-clause-sized encodings. *)
type watchlist = { mutable wdata : clause array; mutable wlen : int }

let new_watchlist () = { wdata = [||]; wlen = 0 }

let watch_push w c =
  if w.wlen = Array.length w.wdata then begin
    let bigger = Array.make (max 4 (2 * w.wlen)) c in
    Array.blit w.wdata 0 bigger 0 w.wlen;
    w.wdata <- bigger
  end;
  w.wdata.(w.wlen) <- c;
  w.wlen <- w.wlen + 1

type t = {
  mutable nvars : int;
  (* assignment state, indexed by variable *)
  mutable assigns : int array; (* -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : clause option array;
  mutable phase : bool array;
  (* watch lists, indexed by literal *)
  mutable watches : watchlist array;
  (* trail of literals assigned true, with decision-level marks *)
  mutable trail : int array;
  mutable trail_n : int;
  mutable trail_lim : int array;
  mutable trail_lim_n : int;
  mutable qhead : int;
  (* clause database *)
  mutable learnts : clause list;
  mutable unsat : bool;
  (* static decision order: [priority] first, then index order *)
  mutable priority : int array;
  mutable prio_head : int;
  mutable scan_head : int;
  (* counters *)
  mutable n_solves : int;
  mutable n_props : int;
  mutable n_conflicts : int;
  mutable n_learned : int;
  mutable n_restarts : int;
  (* conflict-analysis scratch *)
  mutable seen : bool array;
}

type stats = {
  solves : int;
  propagations : int;
  conflicts : int;
  learned : int;
  restarts : int;
}

let create () =
  {
    nvars = 0;
    assigns = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 None;
    phase = Array.make 16 false;
    watches = Array.init 32 (fun _ -> new_watchlist ());
    trail = Array.make 16 0;
    trail_n = 0;
    trail_lim = Array.make 16 0;
    trail_lim_n = 0;
    qhead = 0;
    learnts = [];
    unsat = false;
    priority = [||];
    prio_head = 0;
    scan_head = 0;
    n_solves = 0;
    n_props = 0;
    n_conflicts = 0;
    n_learned = 0;
    n_restarts = 0;
    seen = Array.make 16 false;
  }

let grow_to arr n fill =
  let len = Array.length !arr in
  if n > len then begin
    let bigger = Array.make (max n (2 * len)) fill in
    Array.blit !arr 0 bigger 0 len;
    arr := bigger
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  let n = s.nvars in
  let g get set fill =
    let r = ref (get s) in
    grow_to r n fill;
    set s !r
  in
  g (fun s -> s.assigns) (fun s a -> s.assigns <- a) (-1);
  g (fun s -> s.level) (fun s a -> s.level <- a) 0;
  g (fun s -> s.phase) (fun s a -> s.phase <- a) false;
  g (fun s -> s.seen) (fun s a -> s.seen <- a) false;
  g (fun s -> s.trail) (fun s a -> s.trail <- a) 0;
  (let r = ref s.reason in
   grow_to r n None;
   s.reason <- !r);
  (* watch slots must be distinct records — no shared fill value *)
  (let len = Array.length s.watches in
   if 2 * n > len then
     s.watches <-
       Array.init
         (max (2 * n) (2 * len))
         (fun i -> if i < len then s.watches.(i) else new_watchlist ()));
  v

(* -1 unassigned, 0 false, 1 true — of a literal *)
let lit_value s l =
  match s.assigns.(l lsr 1) with
  | -1 -> -1
  | a -> if l land 1 = 0 then a else 1 - a

let decision_level s = s.trail_lim_n

let enqueue s l reason =
  s.assigns.(l lsr 1) <- (if l land 1 = 0 then 1 else 0);
  s.level.(l lsr 1) <- decision_level s;
  s.reason.(l lsr 1) <- reason;
  s.trail.(s.trail_n) <- l;
  s.trail_n <- s.trail_n + 1

let new_decision_level s =
  if s.trail_lim_n = Array.length s.trail_lim then begin
    let r = ref s.trail_lim in
    grow_to r (s.trail_lim_n + 1) 0;
    s.trail_lim <- !r
  end;
  s.trail_lim.(s.trail_lim_n) <- s.trail_n;
  s.trail_lim_n <- s.trail_lim_n + 1

let backtrack s lvl =
  if decision_level s > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_n - 1 downto bound do
      let v = s.trail.(i) lsr 1 in
      s.phase.(v) <- s.assigns.(v) = 1;
      s.assigns.(v) <- -1;
      s.reason.(v) <- None
    done;
    s.trail_n <- bound;
    s.qhead <- bound;
    s.trail_lim_n <- lvl;
    s.prio_head <- 0;
    s.scan_head <- 0
  end

exception Conflict of clause

(* Two-watched-literal propagation: a clause watches lits.(0) and
   lits.(1); when a watched literal becomes false it either finds a new
   non-false literal to watch, is satisfied through the other watch,
   propagates it as a unit, or conflicts. *)
let propagate s =
  try
    while s.qhead < s.trail_n do
      let p = s.trail.(s.qhead) in
      s.qhead <- s.qhead + 1;
      let false_lit = negate p in
      let w = s.watches.(false_lit) in
      (* in-place filter: [i] reads, [j] writes back the kept watchers;
         a moved watch is pushed onto another literal's list (never this
         one — clause literals are distinct), so the scan stays sound *)
      let i = ref 0 and j = ref 0 in
      while !i < w.wlen do
        let c = w.wdata.(!i) in
        incr i;
        let lits = c.lits in
        (* normalize: the false literal sits at index 1 *)
        if lits.(0) = false_lit then begin
          lits.(0) <- lits.(1);
          lits.(1) <- false_lit
        end;
        if lit_value s lits.(0) = 1 then begin
          (* satisfied through the other watch *)
          w.wdata.(!j) <- c;
          incr j
        end
        else begin
          (* look for a replacement watch *)
          let n = Array.length lits in
          let k = ref 2 in
          while !k < n && lit_value s lits.(!k) = 0 do
            incr k
          done;
          if !k < n then begin
            lits.(1) <- lits.(!k);
            lits.(!k) <- false_lit;
            watch_push s.watches.(lits.(1)) c
          end
          else begin
            w.wdata.(!j) <- c;
            incr j;
            match lit_value s lits.(0) with
            | 0 ->
                (* conflict: keep the unvisited watchers before bailing *)
                while !i < w.wlen do
                  w.wdata.(!j) <- w.wdata.(!i);
                  incr i;
                  incr j
                done;
                w.wlen <- !j;
                raise (Conflict c)
            | _ ->
                s.n_props <- s.n_props + 1;
                enqueue s lits.(0) (Some c)
          end
        end
      done;
      w.wlen <- !j
    done;
    None
  with Conflict c -> Some c

let attach s c =
  watch_push s.watches.(c.lits.(0)) c;
  watch_push s.watches.(c.lits.(1)) c

let add_clause s lits =
  if not s.unsat then begin
    assert (decision_level s = 0);
    (* simplify against the root assignment; drop duplicates and
       tautologies *)
    let sorted = List.sort_uniq compare lits in
    let taut =
      List.exists (fun l -> l land 1 = 0 && List.mem (negate l) sorted) sorted
    in
    let live = List.filter (fun l -> lit_value s l <> 0) sorted in
    let satisfied = List.exists (fun l -> lit_value s l = 1) live in
    if not (taut || satisfied) then
      match live with
      | [] -> s.unsat <- true
      | [ l ] -> (
          enqueue s l None;
          match propagate s with
          | Some _ -> s.unsat <- true
          | None -> ())
      | _ :: _ :: _ ->
          let c = { lits = Array.of_list live } in
          attach s c
  end

(* First-UIP conflict analysis. Returns the learned clause (asserting
   literal first) and the backjump level. *)
let analyze s confl =
  let current = decision_level s in
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let index = ref (s.trail_n - 1) in
  let confl = ref confl in
  let continue = ref true in
  while !continue do
    let lits = !confl.lits in
    let start = if !p = -1 then 0 else 1 in
    for j = start to Array.length lits - 1 do
      let q = lits.(j) in
      let v = q lsr 1 in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        if s.level.(v) >= current then incr counter
        else learnt := q :: !learnt
      end
    done;
    (* pick the next seen literal off the trail *)
    while not s.seen.(s.trail.(!index) lsr 1) do
      decr index
    done;
    p := s.trail.(!index);
    decr index;
    let v = !p lsr 1 in
    s.seen.(v) <- false;
    decr counter;
    if !counter = 0 then continue := false
    else
      (* the reason clause of [p] keeps [p] at index 0 (propagation and
         learning both enqueue [lits.(0)]), so the resolvent is the
         clause itself scanned from index 1 *)
      match s.reason.(v) with
      | Some c -> confl := c
      | None -> assert false
  done;
  let others = !learnt in
  List.iter (fun q -> s.seen.(q lsr 1) <- false) others;
  let bt =
    List.fold_left (fun acc q -> max acc s.level.(q lsr 1)) 0 others
  in
  (negate !p :: others, bt)

(* Luby restart sequence: 1 1 2 1 1 2 4 ... *)
let luby i =
  let size = ref 1 and seq = ref 0 in
  while !size < i + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref i in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

let pick_branch s =
  let n = Array.length s.priority in
  let found = ref (-1) in
  while !found < 0 && s.prio_head < n do
    let v = s.priority.(s.prio_head) in
    if s.assigns.(v) = -1 then found := v else s.prio_head <- s.prio_head + 1
  done;
  while !found < 0 && s.scan_head < s.nvars do
    if s.assigns.(s.scan_head) = -1 then found := s.scan_head
    else s.scan_head <- s.scan_head + 1
  done;
  !found

let solve ?(conflict_limit = max_int) s =
  if s.unsat then `Unsat
  else begin
    s.n_solves <- s.n_solves + 1;
    let conflicts0 = s.n_conflicts in
    let restart_base = 100 in
    let next_restart = ref (restart_base * luby 0) in
    let restart_idx = ref 0 in
    let result = ref `Unknown in
    (match propagate s with
    | Some _ ->
        s.unsat <- true;
        result := `Unsat
    | None -> ());
    while !result = `Unknown do
      match propagate s with
      | Some confl ->
          s.n_conflicts <- s.n_conflicts + 1;
          if decision_level s = 0 then begin
            s.unsat <- true;
            result := `Unsat
          end
          else if s.n_conflicts - conflicts0 >= conflict_limit then begin
            backtrack s 0;
            result := `Limit
          end
          else begin
            let learnt, bt = analyze s confl in
            backtrack s bt;
            (match learnt with
            | [] -> assert false
            | [ l ] ->
                (* root-asserted, so no watches needed — kept in the
                   database only so [learned_clauses] reports it *)
                s.learnts <- { lits = [| l |] } :: s.learnts;
                s.n_learned <- s.n_learned + 1;
                enqueue s l None
            | l0 :: _ :: _ ->
                (* second watch must sit at the backjump level *)
                let arr = Array.of_list learnt in
                let wi = ref 1 in
                for j = 2 to Array.length arr - 1 do
                  if s.level.(arr.(j) lsr 1) > s.level.(arr.(!wi) lsr 1) then
                    wi := j
                done;
                let tmp = arr.(1) in
                arr.(1) <- arr.(!wi);
                arr.(!wi) <- tmp;
                let c = { lits = arr } in
                attach s c;
                s.learnts <- c :: s.learnts;
                s.n_learned <- s.n_learned + 1;
                enqueue s l0 (Some c));
            if s.n_conflicts - conflicts0 >= !next_restart then begin
              s.n_restarts <- s.n_restarts + 1;
              incr restart_idx;
              next_restart :=
                s.n_conflicts - conflicts0 + (restart_base * luby !restart_idx);
              backtrack s 0
            end
          end
      | None -> (
          (* decide in the static order *)
          match pick_branch s with
          | -1 -> result := `Sat (* all assigned: model *)
          | v ->
              new_decision_level s;
              enqueue s (if s.phase.(v) then pos v else neg v) None)
    done;
    match !result with
    | `Sat ->
        (* keep the model readable: phases already saved on backtrack;
           freeze assignments into the phase array, then reset *)
        for i = 0 to s.nvars - 1 do
          if s.assigns.(i) >= 0 then s.phase.(i) <- s.assigns.(i) = 1
        done;
        backtrack s 0;
        `Sat
    | `Unsat ->
        backtrack s 0;
        `Unsat
    | `Limit -> `Limit
    | `Unknown -> assert false
  end

(* After [`Sat] the model lives in the saved phases (frozen just before
   the final backtrack), plus whatever the root level pinned. *)
let value s v =
  match s.assigns.(v) with 1 -> true | 0 -> false | _ -> s.phase.(v)

let set_priority s vars =
  s.priority <- vars;
  s.prio_head <- 0

let set_phase s v b = s.phase.(v) <- b

let learned_clauses s = List.rev_map (fun c -> Array.copy c.lits) s.learnts

let stats s =
  {
    solves = s.n_solves;
    propagations = s.n_props;
    conflicts = s.n_conflicts;
    learned = s.n_learned;
    restarts = s.n_restarts;
  }
