module Obs = Dlearn_obs.Obs

type group_kind =
  | Md_simultaneous
  | Cfd_alternative

let kind_of_origin = function
  | Literal.From_md _ -> Md_simultaneous
  | Literal.From_cfd _ -> Cfd_alternative

(* Counters on the process-wide registry (docs/OBSERVABILITY.md), bumped
   once per enumeration, never per state. *)
module Stats = struct
  let enumerations = Obs.counter "repair.enumerations"
  let states = Obs.counter "repair.states"
  let truncated = Obs.counter "repair.truncated"
end

(* Tables keyed by int arrays: literal signatures, literal classes, and the
   keys of visited states and results. *)
module Key_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) (b : int array) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec same i = i = n || (a.(i) = b.(i) && same (i + 1)) in
    same 0

  let hash (a : int array) =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x100000001b3
    done;
    !h lxor (!h lsr 29)
end)

module Int_tbl = Hashtbl.Make (Int)

(* ------------------------------------------------------------------ *)
(* Interning. Every term, predicate, origin and literal an enumeration
   meets gets a dense id, once; a state is a head id and an array of body
   literal ids in body order, and everything done per state is integer
   work. A literal is identified by its signature, the ids of its parts,
   so two literals share an id exactly when [Literal.equal] holds. Firing
   a group only substitutes replacement terms that already occur in the
   clause: the terms, predicates and origins collected at the start cover
   every state, and only literal ids grow. *)

type atom =
  | Aeq of int * int
  | Aneq of int * int
  | Asim of int * int

type repair_info = {
  origin : int;
  group : int;
  rank : int;  (* rank of [group] among the clause's group ids *)
  kind : group_kind;
  cond : atom array;
  subject : int;
  replacement : int;
  drops : int array;  (* literal ids *)
}

type shape =
  | Schema of int * int array  (* predicate, arguments *)
  | Similarity of int * int
  | Equality of int * int
  | Inequality of int * int
  | Repair of repair_info

type info = {
  lit : Literal.t Lazy.t;  (* built when a result or a twin key needs it *)
  shape : shape;
  rank : int;  (* of the group, for a repair literal; -1 otherwise *)
  cls : int;
      (* class under [Literal.compare], which ignores repair conditions *)
  occ : int array;  (* every term [Literal.map_terms] visits *)
  mask : int;  (* [occ] hashed into the bits of an int *)
  touch : int array;
      (* for a repair literal, the [Term.to_string] ids of the terms
         [Literal.terms] lists, which identify the terms its group
         touches *)
}

type state = {
  head : int;
  body : int array;  (* literal ids, in body order *)
  key : int array;
  exact : bool;  (* [key] is the head and the set of body ids *)
}

type t = {
  select : group_kind -> bool;
  term_ids : int Term.Tbl.t;
  terms : Term.t array;
  strings : (string, int) Hashtbl.t;
  touch_key : int array;
      (* per term: id of [Term.to_string], which identifies the terms a
         group touches; -1 until first needed *)
  preds : (string, int) Hashtbl.t;
  pred_names : string array;
  origins : (string, int) Hashtbl.t;
  origin_values : Literal.origin array;
  group_rank : (int, int) Hashtbl.t;
  signatures : int Key_tbl.t;
  classes : int Key_tbl.t;
  mutable nclasses : int;
  mutable twins : bool;  (* some class holds two literal ids *)
  mutable class_size : int array;  (* literal ids per class *)
  mutable infos : info array;
  mutable nlits : int;
  substitutions : int Int_tbl.t Key_tbl.t;
      (* per substitution, the memo of the literals it rewrote *)
  visited : unit Key_tbl.t;
  results : unit Key_tbl.t;
  mutable found : Clause.t list;  (* results, newest first *)
  mutable states : int;
  mutable truncated : bool;
  (* Scratch marks, each valid while it holds the value its user took
     from [clock]. *)
  mutable clock : int;
  mutable subst : int;  (* mark of the subjects of the substitution *)
  mutable subst_mask : int;  (* the subjects hashed as in [info.mask] *)
  term_mark : int array;
  replacement_of : int array;
  occ_mark : int array;
  mutable env : int;  (* mark of the current environment *)
  uf_mark : int array;
  parent : int array;
  mutable sims : (int * int) list;
  touch_mark : int array;
  touch_count : int array;
  touch_last : int array;
  group_mark : int array;
  group_members : int list array;
  group_kind : group_kind array;
  mutable lit_mark : int array;
  mutable cls_mark : int array;
  mutable out : int array;  (* a child's body *)
  mutable fresh : int array;  (* the ids its rewriting created *)
  mutable key_buf : int array;  (* its key *)
}

let tick st =
  st.clock <- st.clock + 1;
  st.clock

let grow a n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let info st id = st.infos.(id)

let repair_info st id =
  match st.infos.(id).shape with
  | Repair r -> r
  | Schema _ | Similarity _ | Equality _ | Inequality _ -> assert false

let atom_terms = function Aeq (a, b) | Aneq (a, b) | Asim (a, b) -> [ a; b ]

(* The terms [Literal.terms] lists: repair drops excluded. *)
let top_terms = function
  | Schema (_, args) -> Array.to_list args
  | Similarity (a, b) | Equality (a, b) | Inequality (a, b) -> [ a; b ]
  | Repair r ->
      r.subject :: r.replacement
      :: List.concat_map atom_terms (Array.to_list r.cond)

let signature = function
  | Schema (p, args) -> Array.append [| 0; p |] args
  | Similarity (a, b) -> [| 1; a; b |]
  | Equality (a, b) -> [| 2; a; b |]
  | Inequality (a, b) -> [| 3; a; b |]
  | Repair r ->
      let atom = function
        | Aeq (a, b) -> [ 0; a; b ]
        | Aneq (a, b) -> [ 1; a; b ]
        | Asim (a, b) -> [ 2; a; b ]
      in
      Array.concat
        [
          [|
            4; r.origin; r.group; r.subject; r.replacement; Array.length r.cond;
          |];
          Array.of_list (List.concat_map atom (Array.to_list r.cond));
          r.drops;
        ]

(* Literals of one class differ at most in repair conditions. *)
let class_of st shape =
  let fresh () =
    let c = st.nclasses in
    st.nclasses <- c + 1;
    st.cls_mark <- grow st.cls_mark (c + 1) 0;
    st.class_size <- grow st.class_size (c + 1) 0;
    st.class_size.(c) <- 1;
    c
  in
  match shape with
  | Repair r -> (
      let k =
        Array.append
          [| r.origin; r.group; r.subject; r.replacement |]
          (Array.map (fun d -> (info st d).cls) r.drops)
      in
      match Key_tbl.find_opt st.classes k with
      | Some c ->
          st.twins <- true;
          st.class_size.(c) <- st.class_size.(c) + 1;
          c
      | None ->
          let c = fresh () in
          Key_tbl.add st.classes k c;
          c)
  | Schema _ | Similarity _ | Equality _ | Inequality _ -> fresh ()

let term st t = st.terms.(t)

let touch_key st t =
  if st.touch_key.(t) < 0 then begin
    let s = Term.to_string (term st t) in
    st.touch_key.(t) <-
      (match Hashtbl.find_opt st.strings s with
      | Some k -> k
      | None ->
          let k = Hashtbl.length st.strings in
          Hashtbl.add st.strings s k;
          k)
  end;
  st.touch_key.(t)

(* A term's bit in literal masks. *)
let bit t = 1 lsl (t mod 62)

let literal st id = Lazy.force (info st id).lit

let to_literal st = function
  | Schema (p, args) ->
      Literal.Rel { pred = st.pred_names.(p); args = Array.map (term st) args }
  | Similarity (a, b) -> Literal.Sim (term st a, term st b)
  | Equality (a, b) -> Literal.Eq (term st a, term st b)
  | Inequality (a, b) -> Literal.Neq (term st a, term st b)
  | Repair r ->
      let atom = function
        | Aeq (a, b) -> Cond.Ceq (term st a, term st b)
        | Aneq (a, b) -> Cond.Cneq (term st a, term st b)
        | Asim (a, b) -> Cond.Csim (term st a, term st b)
      in
      Literal.Repair
        {
          origin = st.origin_values.(r.origin);
          group = r.group;
          cond = Array.to_list (Array.map atom r.cond);
          subject = term st r.subject;
          replacement = term st r.replacement;
          drops = Array.to_list (Array.map (literal st) r.drops);
        }

(* The id of the literal of [shape], whose value is [lit]. *)
let add st shape lit =
  let sg = signature shape in
  match Key_tbl.find_opt st.signatures sg with
  | Some id -> id
  | None ->
      let top = top_terms shape in
      let stamp = tick st in
      let occ = ref [] and mask = ref 0 in
      let see t =
        if st.occ_mark.(t) <> stamp then begin
          st.occ_mark.(t) <- stamp;
          occ := t :: !occ;
          mask := !mask lor bit t
        end
      in
      List.iter see top;
      let rank, touch =
        match shape with
        | Repair r ->
            Array.iter (fun d -> Array.iter see (info st d).occ) r.drops;
            (r.rank, Array.of_list (List.map (touch_key st) top))
        | Schema _ | Similarity _ | Equality _ | Inequality _ -> (-1, [||])
      in
      let entry =
        {
          lit;
          shape;
          rank;
          cls = class_of st shape;
          occ = Array.of_list !occ;
          mask = !mask;
          touch;
        }
      in
      let id = st.nlits in
      st.infos <- grow st.infos (id + 1) entry;
      st.infos.(id) <- entry;
      st.nlits <- id + 1;
      st.lit_mark <- grow st.lit_mark (id + 1) 0;
      Key_tbl.add st.signatures sg id;
      id

let rec intern st (l : Literal.t) =
  let tid = Term.Tbl.find st.term_ids in
  let shape =
    match l with
    | Literal.Rel { pred; args } ->
        Schema (Hashtbl.find st.preds pred, Array.map tid args)
    | Literal.Sim (x, y) -> Similarity (tid x, tid y)
    | Literal.Eq (x, y) -> Equality (tid x, tid y)
    | Literal.Neq (x, y) -> Inequality (tid x, tid y)
    | Literal.Repair r ->
        let atom = function
          | Cond.Ceq (a, b) -> Aeq (tid a, tid b)
          | Cond.Cneq (a, b) -> Aneq (tid a, tid b)
          | Cond.Csim (a, b) -> Asim (tid a, tid b)
        in
        Repair
          {
            origin =
              Hashtbl.find st.origins (Literal.origin_to_string r.origin);
            group = r.group;
            rank = Hashtbl.find st.group_rank r.group;
            kind = kind_of_origin r.origin;
            cond = Array.of_list (List.map atom r.cond);
            subject = tid r.subject;
            replacement = tid r.replacement;
            drops = Array.of_list (List.map (intern st) r.drops);
          }
  in
  add st shape (Lazy.from_val l)

(* Applies [f] to [l] and, through repair drops, to every literal nested
   in it. *)
let rec iter_deep f l =
  f l;
  match l with
  | Literal.Repair r -> List.iter (iter_deep f) r.drops
  | Literal.Rel _ | Literal.Sim _ | Literal.Eq _ | Literal.Neq _ -> ()

(* Dense ids for the distinct keys of [items], in order of first sight,
   and the first item of each. *)
let dense key items =
  let ids = Hashtbl.create 16 in
  let firsts =
    List.filter
      (fun x ->
        let k = key x in
        (not (Hashtbl.mem ids k))
        && begin
             Hashtbl.add ids k (Hashtbl.length ids);
             true
           end)
      items
  in
  (ids, Array.of_list firsts)

let create ~select (c : Clause.t) =
  let lits = ref [] in
  List.iter
    (iter_deep (fun l -> lits := l :: !lits))
    (c.Clause.head :: c.Clause.body);
  let lits = List.rev !lits in
  let term_ids = Term.Tbl.create 64 in
  let terms =
    List.concat_map Literal.terms lits
    |> List.filter (fun t ->
           (not (Term.Tbl.mem term_ids t))
           && begin
                Term.Tbl.add term_ids t (Term.Tbl.length term_ids);
                true
              end)
    |> Array.of_list
  in
  let preds, pred_names =
    dense Fun.id
      (List.filter_map
         (function Literal.Rel { pred; _ } -> Some pred | _ -> None)
         lits)
  in
  let repairs =
    List.filter_map (function Literal.Repair r -> Some r | _ -> None) lits
  in
  let origins, origin_values =
    dense Literal.origin_to_string
      (List.map (fun (r : Literal.repair) -> r.origin) repairs)
  in
  let group_rank = Hashtbl.create 16 in
  List.map (fun (r : Literal.repair) -> r.group) repairs
  |> List.sort_uniq Int.compare
  |> List.iteri (fun i g -> Hashtbl.add group_rank g i);
  let nterms = Array.length terms in
  let ngroups = Hashtbl.length group_rank in
  {
    select;
    term_ids;
    terms;
    strings = Hashtbl.create 16;
    touch_key = Array.make nterms (-1);
    preds;
    pred_names;
    origins;
    origin_values;
    group_rank;
    signatures = Key_tbl.create 256;
    classes = Key_tbl.create 64;
    nclasses = 0;
    twins = false;
    class_size = [||];
    infos = [||];
    nlits = 0;
    substitutions = Key_tbl.create 16;
    visited = Key_tbl.create 64;
    results = Key_tbl.create 8;
    found = [];
    states = 0;
    truncated = false;
    clock = 0;
    subst = 0;
    subst_mask = 0;
    term_mark = Array.make nterms 0;
    replacement_of = Array.make nterms 0;
    occ_mark = Array.make nterms 0;
    env = 0;
    uf_mark = Array.make nterms 0;
    parent = Array.make nterms 0;
    sims = [];
    touch_mark = Array.make nterms 0;
    touch_count = Array.make nterms 0;
    touch_last = Array.make nterms 0;
    group_mark = Array.make ngroups 0;
    group_members = Array.make ngroups [];
    group_kind = Array.make ngroups Md_simultaneous;
    lit_mark = [||];
    cls_mark = [||];
    out = [||];
    fresh = [||];
    key_buf = [||];
  }

(* ------------------------------------------------------------------ *)
(* State keys. [Clause.canonical] sorts and deduplicates the body under
   [Literal.compare], so two body literals that differ only in a repair
   condition ("twins") collapse into whichever one [List.sort_uniq] keeps.
   A state's key is its head and the set of its body ids, except that a
   state holding twins keys on the ids [Clause.canonical] keeps. *)

(* Whether the body ids of [key] include two of one class. *)
let has_twins st key =
  st.twins
  &&
  let stamp = tick st in
  let rec scan i =
    i < Array.length key
    &&
    let c = (info st key.(i)).cls in
    st.cls_mark.(c) = stamp
    || begin
         st.cls_mark.(c) <- stamp;
         scan (i + 1)
       end
  in
  scan 1

let twin_key st head body =
  let kept =
    List.sort_uniq
      (fun i j -> Literal.compare (literal st i) (literal st j))
      (Array.to_list body)
  in
  Array.of_list (head :: List.sort Int.compare kept)

(* [key_of st head body] is the state's key and whether it is exact. *)
let key_of st head body =
  let sorted = Array.copy body in
  Array.sort Int.compare sorted;
  let key = Array.make (Array.length sorted + 1) head in
  let k = ref 1 in
  Array.iteri
    (fun i id ->
      if i = 0 || id <> sorted.(i - 1) then begin
        key.(!k) <- id;
        incr k
      end)
    sorted;
  let key = Array.sub key 0 !k in
  if has_twins st key then (twin_key st head body, false) else (key, true)

(* Sorts [a.(0) .. a.(n - 1)] in place: an insertion sort, for the few
   literals one child rewrites. *)
let sort_prefix a n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* ------------------------------------------------------------------ *)
(* Condition environment of a state ([Clause_env] over ids): a union-find
   over the terms of its equality literals, and its similarity pairs. *)

let rec find st x =
  if st.uf_mark.(x) <> st.env then x
  else
    let p = st.parent.(x) in
    let r = find st p in
    if r <> p then st.parent.(x) <- r;
    r

let build_env st body =
  let stamp = tick st in
  st.env <- stamp;
  st.sims <- [];
  Array.iter
    (fun id ->
      match (info st id).shape with
      | Equality (x, y) ->
          let rx = find st x and ry = find st y in
          if rx <> ry then begin
            st.uf_mark.(rx) <- stamp;
            st.parent.(rx) <- ry
          end
      | Similarity (x, y) -> st.sims <- (x, y) :: st.sims
      | Schema _ | Inequality _ | Repair _ -> ())
    body

let same st a b = a = b || find st a = find st b

let similar st x y =
  same st x y
  || List.exists
       (fun (a, b) ->
         (same st a x && same st b y) || (same st a y && same st b x))
       st.sims

let holds st cond =
  Array.for_all
    (function
      | Aeq (a, b) -> same st a b
      | Aneq (a, b) -> not (same st a b)
      | Asim (a, b) -> similar st a b)
    cond

(* ------------------------------------------------------------------ *)
(* Children. Firing a group deletes its repair literals and the recorded
   drops, then substitutes: only literals mentioning a substituted term
   are rewritten, each rewrite memoised. *)

type group = {
  rank : int;
  kind : group_kind;
  members : int list;  (* body positions, in body order *)
  enabled : int list;  (* the members whose condition holds *)
}

(* Selected groups of a state, in group-id order, as (rank, kind, members).
   The kind of a group is that of its last member. *)
let groups_of st body =
  let stamp = tick st in
  for p = Array.length body - 1 downto 0 do
    match (info st body.(p)).shape with
    | Repair r ->
        if st.group_mark.(r.rank) <> stamp then begin
          st.group_mark.(r.rank) <- stamp;
          st.group_members.(r.rank) <- [];
          st.group_kind.(r.rank) <- r.kind
        end;
        st.group_members.(r.rank) <- p :: st.group_members.(r.rank)
    | Schema _ | Similarity _ | Equality _ | Inequality _ -> ()
  done;
  let groups = ref [] in
  for g = Array.length st.group_mark - 1 downto 0 do
    if st.group_mark.(g) = stamp && st.select st.group_kind.(g) then
      groups := (g, st.group_kind.(g), st.group_members.(g)) :: !groups
  done;
  !groups

(* Installs the substitution [pairs] of (subject, replacement) term ids,
   the first pair of a subject winning, and returns the memo of the
   literals it rewrote. *)
let substitute st pairs =
  let stamp = tick st in
  st.subst <- stamp;
  st.subst_mask <- 0;
  List.iter
    (fun (s, r) ->
      if st.term_mark.(s) <> stamp then begin
        st.term_mark.(s) <- stamp;
        st.replacement_of.(s) <- r;
        st.subst_mask <- st.subst_mask lor bit s
      end)
    pairs;
  let key = Array.of_list (List.concat_map (fun (s, r) -> [ s; r ]) pairs) in
  match Key_tbl.find_opt st.substitutions key with
  | Some memo -> memo
  | None ->
      let memo = Int_tbl.create 16 in
      Key_tbl.add st.substitutions key memo;
      memo

let substituted st t =
  if st.term_mark.(t) = st.subst then st.replacement_of.(t) else t

(* Whether literal [id] mentions a subject of the substitution. *)
let touched st id =
  let l = info st id in
  l.mask land st.subst_mask <> 0
  &&
  let rec scan i =
    i < Array.length l.occ
    && (st.term_mark.(l.occ.(i)) = st.subst || scan (i + 1))
  in
  scan 0

(* [rewrite st memo id] applies the installed substitution, whose memo is
   [memo], to literal [id]. *)
let rec rewrite st memo id =
  if not (touched st id) then id
  else
    match Int_tbl.find_opt memo id with
    | Some id' -> id'
    | None ->
        let sub = substituted st in
        let atom = function
          | Aeq (a, b) -> Aeq (sub a, sub b)
          | Aneq (a, b) -> Aneq (sub a, sub b)
          | Asim (a, b) -> Asim (sub a, sub b)
        in
        let shape =
          match (info st id).shape with
          | Schema (p, args) -> Schema (p, Array.map sub args)
          | Similarity (a, b) -> Similarity (sub a, sub b)
          | Equality (a, b) -> Equality (sub a, sub b)
          | Inequality (a, b) -> Inequality (sub a, sub b)
          | Repair r ->
              Repair
                {
                  r with
                  cond = Array.map atom r.cond;
                  subject = sub r.subject;
                  replacement = sub r.replacement;
                  drops = Array.map (rewrite st memo) r.drops;
                }
        in
        let id' = add st shape (lazy (to_literal st shape)) in
        Int_tbl.add memo id id';
        id'

(* The child of [s] that deletes the literal at [position], every repair
   literal of the group of rank [rank] (either may be -1 for none) and the
   literals in [drops], then substitutes [pairs]. An exact parent key
   yields the child's key without a sort: the parent's ids the child kept
   merged with the ids its rewriting created. *)
let child st s ~position ~rank ~drops pairs =
  let memo = substitute st pairs in
  let dropped = tick st in
  let kept = tick st in
  List.iter (Array.iter (fun d -> st.lit_mark.(d) <- dropped)) drops;
  let n = Array.length s.body in
  st.out <- grow st.out n 0;
  st.fresh <- grow st.fresh n 0;
  let out = st.out and fresh = st.fresh in
  let k = ref 0 and nf = ref 0 in
  Array.iteri
    (fun p id ->
      if
        p <> position
        && st.lit_mark.(id) <> dropped
        && not (rank >= 0 && (info st id).rank = rank)
      then begin
        let id' = rewrite st memo id in
        out.(!k) <- id';
        incr k;
        if id' = id then st.lit_mark.(id) <- kept
        else begin
          fresh.(!nf) <- id';
          incr nf
        end
      end)
    s.body;
  let head = rewrite st memo s.head in
  let body = Array.sub out 0 !k in
  if not s.exact then
    let key, exact = key_of st head body in
    { head; body; key; exact }
  else begin
    sort_prefix fresh !nf;
    (* The parent's ids hold no twins, so a twin pair in the child takes a
       fresh id of a class with more than one id. *)
    let shared = ref false in
    for j = 0 to !nf - 1 do
      if st.class_size.((info st fresh.(j)).cls) > 1 then shared := true
    done;
    (* Merge the kept ids (sorted, distinct) with the fresh ones. *)
    let m = Array.length s.key in
    st.key_buf <- grow st.key_buf (m + !nf) 0;
    let key = st.key_buf in
    key.(0) <- head;
    let k = ref 1 and j = ref 0 in
    let push x =
      if !k = 1 || key.(!k - 1) <> x then begin
        key.(!k) <- x;
        incr k
      end
    in
    for i = 1 to m - 1 do
      let x = s.key.(i) in
      if st.lit_mark.(x) = kept then begin
        while !j < !nf && fresh.(!j) < x do
          push fresh.(!j);
          incr j
        done;
        push x
      end
    done;
    while !j < !nf do
      push fresh.(!j);
      incr j
    done;
    let key = Array.sub key 0 !k in
    if !shared && has_twins st key then
      { head; body; key = twin_key st head body; exact = false }
    else { head; body; key; exact = true }
  end

(* The children of firing group [g], in the order they are explored. *)
let children st s g =
  let fire p =
    let r = repair_info st s.body.(p) in
    (r.subject, r.replacement)
  in
  let drops_of p = (repair_info st s.body.(p)).drops in
  match g.kind, g.enabled with
  | Md_simultaneous, enabled ->
      (* All enabled members fire at once; the whole group is consumed. *)
      [
        (fun () ->
          child st s ~position:(-1) ~rank:g.rank
            ~drops:(List.map drops_of enabled) (List.map fire enabled));
      ]
  | Cfd_alternative, [] ->
      (* No member can fire: they are all simply removed. *)
      [ (fun () -> child st s ~position:(-1) ~rank:g.rank ~drops:[] []) ]
  | Cfd_alternative, enabled ->
      (* Branch: each enabled member may be the one applied first. The rest
         of the group stays and is re-examined (their conditions are
         falsified by the restriction literals, so they will be dropped on
         the next visit). *)
      List.map
        (fun p () ->
          child st s ~position:p ~rank:(-1) ~drops:[ drops_of p ]
            [ fire p ])
        enabled

(* Among the candidate groups, the first whose touched terms no other
   candidate touches. *)
let independent st body candidates =
  let stamp = tick st in
  let touch p = (info st body.(p)).touch in
  List.iter
    (fun g ->
      List.iter
        (fun p ->
          Array.iter
            (fun k ->
              if st.touch_mark.(k) <> stamp then begin
                st.touch_mark.(k) <- stamp;
                st.touch_count.(k) <- 1;
                st.touch_last.(k) <- g.rank
              end
              else if st.touch_last.(k) <> g.rank then begin
                st.touch_count.(k) <- st.touch_count.(k) + 1;
                st.touch_last.(k) <- g.rank
              end)
            (touch p))
        g.members)
    candidates;
  List.find_opt
    (fun g ->
      List.for_all
        (fun p -> Array.for_all (fun k -> st.touch_count.(k) = 1) (touch p))
        g.members)
    candidates

(* A final state loses the restriction literals over variables that no
   schema atom (head included) or repair literal anchors
   ([Clause.remove_dangling_restrictions]). *)
let record st head body =
  let stamp = tick st in
  let anchors id =
    match (info st id).shape with
    | Schema _ | Repair _ -> true
    | Similarity _ | Equality _ | Inequality _ -> false
  in
  let vars id =
    List.filter
      (fun t -> Term.is_var (term st t))
      (top_terms (info st id).shape)
  in
  let anchor id =
    if anchors id then List.iter (fun v -> st.term_mark.(v) <- stamp) (vars id)
  in
  anchor head;
  Array.iter anchor body;
  let final =
    List.filter
      (fun id ->
        anchors id
        || List.for_all (fun v -> st.term_mark.(v) = stamp) (vars id))
      (Array.to_list body)
  in
  let key, _ = key_of st head (Array.of_list final) in
  if not (Key_tbl.mem st.results key) then begin
    Key_tbl.add st.results key ();
    st.found <-
      {
        Clause.head = literal st head;
        body = List.map (literal st) final;
      }
      :: st.found
  end

(* [go st make] visits the state [make] returns, unless the result cap
   has been reached. *)
let rec go st ~state_cap ~result_cap make =
  if Key_tbl.length st.results >= result_cap then st.truncated <- true
  else begin
    let s = make () in
    let body = s.body in
    if not (Key_tbl.mem st.visited s.key) then begin
      Key_tbl.add st.visited s.key ();
      st.states <- st.states + 1;
      if st.states > state_cap then st.truncated <- true
      else
        match groups_of st body with
        | [] -> record st s.head body
        | groups ->
            (* Enabled groups (some member's condition holds) are processed
               before disabled ones: a group is only dropped once nothing
               left could still enable it — otherwise an order that
               examines an induced repair before its inducing repair would
               discard it and leave the violation unrepaired. Among the
               enabled groups, one whose terms are disjoint from every
               other group's can go first deterministically; otherwise the
               order branches. Everything read from the scratch marks is
               settled before the first child runs. *)
            build_env st body;
            let groups =
              List.map
                (fun (rank, kind, members) ->
                  let enabled =
                    List.filter
                      (fun p -> holds st (repair_info st body.(p)).cond)
                      members
                  in
                  { rank; kind; members; enabled })
                groups
            in
            let enabled = List.filter (fun g -> g.enabled <> []) groups in
            let candidates = if enabled <> [] then enabled else groups in
            let to_branch =
              match independent st body candidates with
              | Some g -> [ g ]
              | None -> candidates
            in
            List.iter
              (fun g ->
                List.iter (go st ~state_cap ~result_cap) (children st s g))
              to_branch
    end
  end

(* The clause's repaired clauses, the distinct states reached, and whether
   a cap cut the search short. *)
let search ~select ~state_cap ~result_cap (c : Clause.t) =
  let selected = function
    | Literal.Repair r -> select (kind_of_origin r.origin)
    | Literal.Rel _ | Literal.Sim _ | Literal.Eq _ | Literal.Neq _ -> false
  in
  if not (List.exists selected c.Clause.body) then
    (* No group to fire: the clause is its only state, and final. *)
    if result_cap <= 0 then ([], 0, true)
    else if state_cap < 1 then ([], 1, true)
    else ([ Clause.remove_dangling_restrictions c ], 1, false)
  else begin
    let st = create ~select c in
    let root () =
      let head = intern st c.Clause.head in
      let body = Array.of_list (List.map (intern st) c.Clause.body) in
      let key, exact = key_of st head body in
      { head; body; key; exact }
    in
    go st ~state_cap ~result_cap root;
    (List.rev st.found, st.states, st.truncated)
  end

let enumerate ~select ~state_cap ~result_cap c =
  let found, states, truncated = search ~select ~state_cap ~result_cap c in
  Obs.incr Stats.enumerations;
  Obs.add Stats.states states;
  if truncated then Obs.incr Stats.truncated;
  found

let repaired_clauses ?(state_cap = 4096) ?(result_cap = 64) c =
  enumerate ~select:(fun _ -> true) ~state_cap ~result_cap c

let cfd_applications ?(state_cap = 4096) ?(result_cap = 64) c =
  enumerate
    ~select:(fun kind -> kind = Cfd_alternative)
    ~state_cap ~result_cap c

let is_repaired (c : Clause.t) = Clause.repair_body c = []
