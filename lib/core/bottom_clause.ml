open Dlearn_relation
open Dlearn_constraints
open Dlearn_logic
module Obs = Dlearn_obs.Obs

type mode =
  | Variable
  | Ground

(* ------------------------------------------------------------------ *)
(* Phase 1: gather the relevant tuples I_e (Algorithm 2).              *)
(* ------------------------------------------------------------------ *)

type site = {
  site_md : Md.t;
  left_id : int;
  right_id : int;
}

type gathered = {
  order : (string * int) list;  (** tuples in discovery order *)
  sites : site list;
}

let shuffle rng l =
  let arr = Array.of_list l in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let gather (ctx : Context.t) rng (e : Tuple.t) =
  let config = ctx.Context.config in
  let db = ctx.Context.db in
  let seen : (string * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let per_rel : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let m_values : (Value.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let frontier_values = ref [] in
  let frontier_tuples = ref [] in
  let sites = ref [] in
  let site_seen : (string * int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let note_value v =
    if (not (Value.is_null v)) && not (Hashtbl.mem m_values v) then begin
      Hashtbl.add m_values v ();
      frontier_values := v :: !frontier_values
    end
  in
  (* Add one tuple, respecting the per-relation sample cap. Returns true
     when the tuple is (already or newly) part of I_e. *)
  let add_tuple rel id =
    if Hashtbl.mem seen (rel, id) then true
    else begin
      let count = Option.value ~default:0 (Hashtbl.find_opt per_rel rel) in
      if count >= config.Config.sample_size then false
      else begin
        Hashtbl.add seen (rel, id) ();
        Hashtbl.replace per_rel rel (count + 1);
        order := (rel, id) :: !order;
        frontier_tuples := (rel, id) :: !frontier_tuples;
        let tuple = Relation.get (Database.find db rel) id in
        Array.iter note_value tuple;
        true
      end
    end
  in
  Array.iter note_value e;
  for _iteration = 1 to config.Config.depth do
    let values = List.rev !frontier_values in
    let tuples = List.rev !frontier_tuples in
    frontier_values := [];
    frontier_tuples := [];
    (* Exact search: σ_{A ∈ M}(R) through the per-attribute indexes. *)
    List.iter
      (fun relation ->
        let rel = Relation.name relation in
        let arity = Schema.arity (Relation.schema relation) in
        let candidates = ref [] in
        let cand_seen = Hashtbl.create 16 in
        List.iter
          (fun v ->
            for pos = 0 to arity - 1 do
              if Context.is_searchable_attr ctx rel pos then
                List.iter
                  (fun id ->
                    if
                      (not (Hashtbl.mem seen (rel, id)))
                      && not (Hashtbl.mem cand_seen id)
                    then begin
                      Hashtbl.add cand_seen id ();
                      candidates := id :: !candidates
                    end)
                  (Relation.select_eq relation pos v)
            done)
          values;
        List.iter
          (fun id -> ignore (add_tuple rel id))
          (shuffle rng !candidates))
      (Database.relations db);
    (* Similarity search: ψ_{B ≈ M}(R) per MD, in both directions.

       Match discovery — the [Sim_index] query through the first compared
       attribute plus verification of the remaining pairs — is pure over
       the database, so it fans out across the pool, one work item per
       (MD, driver tuple, direction). The stateful application (sample
       caps, the per-driver km budget, site recording) then replays the
       discovered matches sequentially in exactly the order the old
       nested loops used — MD, then driver tuple, then left/right — so
       I_e and the site list are identical to the sequential build. *)
    let md_info =
      Array.of_list
        (List.map
           (fun (md : Md.t) ->
             let spec = Md.effective_spec md config.Config.sim in
             let left_rel = Database.find db md.Md.left_rel in
             let right_rel = Database.find db md.Md.right_rel in
             let ls = Relation.schema left_rel
             and rs = Relation.schema right_rel in
             let compared =
               List.map
                 (fun (a, b) -> (Schema.position ls a, Schema.position rs b))
                 md.Md.compared
             in
             (md, spec, left_rel, right_rel, compared))
           ctx.Context.mds)
    in
    let record_site (md : Md.t) left_id right_id =
      let key = (md.Md.id, left_id, right_id) in
      if not (Hashtbl.mem site_seen key) then begin
        Hashtbl.add site_seen key ();
        sites := { site_md = md; left_id; right_id } :: !sites
      end
    in
    (* A driver tuple on one side searches the other side through the
       first compared attribute, then the remaining pairs are verified.
       Returns the matching other-side ids in deterministic candidate
       order; read-only. *)
    let discover (mi, drive_left, (drv_rel, drv_id)) =
      let md, spec, left_rel, right_rel, compared = md_info.(mi) in
      let drv_name = if drive_left then md.Md.left_rel else md.Md.right_rel in
      if not (String.equal drv_rel drv_name) then []
      else begin
        let other_name, other_rel, drv_pos, other_pos =
          if drive_left then
            ( md.Md.right_rel,
              right_rel,
              fst (List.hd compared),
              snd (List.hd compared) )
          else
            ( md.Md.left_rel,
              left_rel,
              snd (List.hd compared),
              fst (List.hd compared) )
        in
        let driver = Relation.get (Database.find db drv_rel) drv_id in
        let v1 = Tuple.get driver drv_pos in
        if Value.is_null v1 || Md.Merge.is_merged v1 then []
        else begin
          let candidate_values =
            if config.Config.exact_matching then
              if Relation.holds_value other_rel other_pos v1 then [ v1 ]
              else []
            else
              Dlearn_similarity.Sim_index.query
                (Context.sim_index ctx other_name other_pos)
                ~km:config.Config.km ~threshold:spec.Md.threshold
                (Value.as_string v1)
              |> List.map (fun (s, _) -> Value.String s)
          in
          List.concat_map
            (fun v2 ->
              List.filter
                (fun other_id ->
                  let other_tuple = Relation.get other_rel other_id in
                  List.for_all
                    (fun (pl, pr) ->
                      let a, b =
                        if drive_left then
                          (Tuple.get driver pl, Tuple.get other_tuple pr)
                        else (Tuple.get other_tuple pl, Tuple.get driver pr)
                      in
                      if config.Config.exact_matching then Value.equal a b
                      else Md.similar spec a b)
                    compared)
                (Relation.select_eq other_rel other_pos v2))
            candidate_values
        end
      end
    in
    let work =
      Array.of_list
        (List.concat
           (List.mapi
              (fun mi _ ->
                List.concat_map
                  (fun drv -> [ (mi, true, drv); (mi, false, drv) ])
                  tuples)
              ctx.Context.mds))
    in
    let found =
      Obs.span "learn.sim_search"
        ~args:[ ("queries", string_of_int (Array.length work)) ]
        (fun () -> Dlearn_parallel.Pool.map (Context.pool ctx) discover work)
    in
    Array.iteri
      (fun w (mi, drive_left, (_, drv_id)) ->
        let md, _, _, _, _ = md_info.(mi) in
        let other_name =
          if drive_left then md.Md.right_rel else md.Md.left_rel
        in
        (* At most km match sites per driver tuple: km is the number of
           top matches considered (§6.2.1). *)
        let sites_left = ref config.Config.km in
        List.iter
          (fun other_id ->
            if !sites_left > 0 && add_tuple other_name other_id then begin
              decr sites_left;
              if drive_left then record_site md drv_id other_id
              else record_site md other_id drv_id
            end)
          found.(w))
      work
  done;
  { order = List.rev !order; sites = List.rev !sites }

(* ------------------------------------------------------------------ *)
(* Phase 2: assemble the clause.                                       *)
(* ------------------------------------------------------------------ *)

(* Mutable assembly state: CFD occurrence-splitting rewrites terms in
   every component, so literals are only materialised at the end. *)
type cell = {
  pred : string;
  cell_rel : string;
  cell_id : int;
  tuple : Tuple.t;
  args : Term.t array;
}

type rspec = {
  r_origin : Literal.origin;
  r_group : int;
  mutable r_cond : Cond.t;
  mutable r_subject : Term.t;
  mutable r_replacement : Term.t;
  r_drops_sims : bool;  (** MD repairs consume sims mentioning the subject *)
  mutable r_drops_eqs : (Term.t * Term.t) list;
}

type assembly = {
  mutable head_args : Term.t array;
  mutable cells : cell list;
  mutable sims : (Term.t * Term.t) list;
  mutable eqs : (Term.t * Term.t) list;  (** restriction + induced equalities *)
  mutable neqs : (Term.t * Term.t) list;
  mutable rspecs : rspec list;
}

let subst_everywhere (asm : assembly) x x' =
  let f t = if Term.equal t x then x' else t in
  asm.head_args <- Array.map f asm.head_args;
  List.iter
    (fun c ->
      Array.iteri (fun i t -> c.args.(i) <- f t) c.args)
    asm.cells;
  asm.sims <- List.map (fun (a, b) -> (f a, f b)) asm.sims;
  asm.eqs <- List.map (fun (a, b) -> (f a, f b)) asm.eqs;
  asm.neqs <- List.map (fun (a, b) -> (f a, f b)) asm.neqs;
  List.iter
    (fun r ->
      r.r_cond <- Cond.map_terms f r.r_cond;
      r.r_subject <- f r.r_subject;
      r.r_replacement <- f r.r_replacement;
      r.r_drops_eqs <- List.map (fun (a, b) -> (f a, f b)) r.r_drops_eqs)
    asm.rspecs

(* Split a shared term into a tagged copy for one occurrence: a fresh
   variable in variable mode, a tagged constant in ground mode. *)
let split_term mode gen suffix = function
  | Term.Var _ -> (
      match mode with
      | Variable | Ground -> Term.Fresh.next gen)
  | Term.Const v -> (
      match mode with
      | Ground | Variable ->
          Term.Const (Value.String (Value.to_string v ^ "\xc2\xa7" ^ suffix)))

let fresh_replacement mode gen tag =
  match mode with
  | Variable -> Term.Fresh.next gen
  | Ground -> Term.Const (Value.String ("\xe2\x8a\xa5" ^ tag))

let build (ctx : Context.t) mode (e : Tuple.t) =
  let config = ctx.Context.config in
  if Tuple.arity e <> Schema.arity config.Config.target then
    invalid_arg "Bottom_clause.build: example arity mismatch";
  (* Deterministic per-example randomness for sampling. *)
  let rng =
    Random.State.make [| config.Config.seed; Tuple.hash e |]
  in
  let gathered = gather ctx rng e in
  let db = ctx.Context.db in
  let var_gen = Term.Fresh.make "v" in
  let repair_gen = Term.Fresh.make "r" in
  let var_of : (Value.t, Term.t) Hashtbl.t = Hashtbl.create 64 in
  let term_of rel pos v =
    match mode with
    | Ground -> Term.Const v
    | Variable ->
        if Context.is_constant_attr ctx rel pos then Term.Const v
        else begin
          match Hashtbl.find_opt var_of v with
          | Some t -> t
          | None ->
              let t =
                if Value.is_null v then Term.Fresh.next var_gen
                else Term.Fresh.next var_gen
              in
              if not (Value.is_null v) then Hashtbl.add var_of v t;
              t
        end
  in
  let head_term v =
    match mode with
    | Ground -> Term.Const v
    | Variable -> (
        if Value.is_null v then Term.Fresh.next var_gen
        else
          match Hashtbl.find_opt var_of v with
          | Some t -> t
          | None ->
              let t = Term.Fresh.next var_gen in
              Hashtbl.add var_of v t;
              t)
  in
  let asm =
    {
      head_args = Array.map head_term e;
      cells = [];
      sims = [];
      eqs = [];
      neqs = [];
      rspecs = [];
    }
  in
  (* Schema atoms. *)
  asm.cells <-
    List.map
      (fun (rel, id) ->
        let tuple = Relation.get (Database.find db rel) id in
        {
          pred = rel;
          cell_rel = rel;
          cell_id = id;
          tuple;
          args = Array.mapi (fun pos v -> term_of rel pos v) tuple;
        })
      gathered.order;
  let find_cell rel id =
    List.find
      (fun c -> String.equal c.cell_rel rel && c.cell_id = id)
      asm.cells
  in
  (* MD similarity matches: similarity literals plus one simultaneous
     repair group per match site. *)
  let group_counter = ref 0 in
  (* Sites whose terms coincide — the same value pair matched through
     different tuple pairs (venues and names repeat across tuples) —
     collapse into one repair group. *)
  let group_seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun site ->
      let md = site.site_md in
      let lcell = find_cell md.Md.left_rel site.left_id in
      let rcell = find_cell md.Md.right_rel site.right_id in
      let ls = Relation.schema (Database.find db md.Md.left_rel) in
      let rs = Relation.schema (Database.find db md.Md.right_rel) in
      let compared_terms =
        List.filter_map
          (fun (a, b) ->
            let pa = Schema.position ls a and pb = Schema.position rs b in
            let ta = lcell.args.(pa) and tb = rcell.args.(pb) in
            if Term.equal ta tb then None else Some (ta, tb))
          md.Md.compared
      in
      List.iter
        (fun (ta, tb) ->
          if
            not
              (List.exists
                 (fun (a, b) ->
                   (Term.equal a ta && Term.equal b tb)
                   || (Term.equal a tb && Term.equal b ta))
                 asm.sims)
          then asm.sims <- asm.sims @ [ (ta, tb) ])
        compared_terms;
      let uc, ud = md.Md.unified in
      let puc = Schema.position ls uc and pud = Schema.position rs ud in
      let tl = lcell.args.(puc) and tr = rcell.args.(pud) in
      let group_key =
        Printf.sprintf "%s|%s|%s" md.Md.id (Term.to_string tl)
          (Term.to_string tr)
      in
      if (not (Term.equal tl tr)) && not (Hashtbl.mem group_seen group_key)
      then begin
        Hashtbl.add group_seen group_key ();
        let gid = !group_counter in
        incr group_counter;
        let cond = List.map (fun (a, b) -> Cond.Csim (a, b)) compared_terms in
        let vl, vr =
          match mode with
          | Variable ->
              (Term.Fresh.next repair_gen, Term.Fresh.next repair_gen)
          | Ground ->
              let merged =
                match tl, tr with
                | Term.Const a, Term.Const b -> Term.Const (Md.Merge.merge a b)
                | _ -> assert false
              in
              (merged, merged)
        in
        asm.rspecs <-
          asm.rspecs
          @ [
              {
                r_origin = Literal.From_md md.Md.id;
                r_group = gid;
                r_cond = cond;
                r_subject = tl;
                r_replacement = vl;
                r_drops_sims = true;
                r_drops_eqs = [];
              };
              {
                r_origin = Literal.From_md md.Md.id;
                r_group = gid;
                r_cond = cond;
                r_subject = tr;
                r_replacement = vr;
                r_drops_sims = true;
                r_drops_eqs = [];
              };
            ];
        if not (Term.equal vl vr) then asm.eqs <- asm.eqs @ [ (vl, vr) ]
      end)
    gathered.sites;
  (* CFD violations among the clause's literals, with later rounds finding
     the violations induced by hypothetical repairs (whose conditions
     reference the inducing repair's terms). *)
  let violation_seen : (string * int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let hyp_pairs round =
    if round <= 1 then []
    else
      List.concat_map
        (fun r ->
          match r.r_origin with
          | Literal.From_cfd _ -> [ (r.r_subject, r.r_replacement) ]
          | Literal.From_md _ -> [])
        asm.rspecs
      @ (* An applied MD group makes its two unified terms equal. *)
      (let md_groups = Hashtbl.create 8 in
       List.iter
         (fun r ->
           match r.r_origin with
           | Literal.From_md _ ->
               Hashtbl.replace md_groups r.r_group
                 (r.r_subject
                 :: Option.value ~default:[]
                      (Hashtbl.find_opt md_groups r.r_group))
           | Literal.From_cfd _ -> ())
         asm.rspecs;
       Hashtbl.fold
         (fun _ subjects acc ->
           match subjects with [ a; b ] -> (a, b) :: acc | _ -> acc)
         md_groups [])
  in
  let terms_hyp_equal hyps a b =
    Term.equal a b
    || List.exists
         (fun (x, y) ->
           (Term.equal x a && Term.equal y b)
           || (Term.equal x b && Term.equal y a))
         hyps
  in
  for round = 1 to config.Config.cfd_rounds do
    let hyps = hyp_pairs round in
    List.iter
      (fun (cfd : Cfd.t) ->
        match Database.find_opt db cfd.Cfd.relation with
        | None -> ()
        | Some relation ->
            let schema = Relation.schema relation in
            let lhs = Cfd.lhs_positions cfd schema in
            let rhs_pos, rhs_pat = Cfd.rhs_position cfd schema in
            let cells =
              List.filter
                (fun c -> String.equal c.pred cfd.Cfd.relation)
                asm.cells
            in
            let arr = Array.of_list cells in
            let n = Array.length arr in
            for i = 0 to n - 1 do
              for j = i to n - 1 do
                let ci = arr.(i) and cj = arr.(j) in
                let key = (cfd.Cfd.id, min ci.cell_id cj.cell_id, max ci.cell_id cj.cell_id) in
                if not (Hashtbl.mem violation_seen key) then begin
                  let lhs_agrees =
                    List.for_all
                      (fun (pos, pat) ->
                        terms_hyp_equal hyps ci.args.(pos) cj.args.(pos)
                        && Cfd.matches pat (Tuple.get ci.tuple pos)
                        && Cfd.matches pat (Tuple.get cj.tuple pos))
                      lhs
                  in
                  let z = ci.args.(rhs_pos) and t = cj.args.(rhs_pos) in
                  let violates =
                    if i = j then
                      lhs_agrees
                      && not (Cfd.matches rhs_pat (Tuple.get ci.tuple rhs_pos))
                    else
                      lhs_agrees
                      && not
                           (Term.equal z t
                           && Cfd.matches rhs_pat (Tuple.get ci.tuple rhs_pos))
                  in
                  if violates then begin
                    Hashtbl.add violation_seen key ();
                    let gid = !group_counter in
                    incr group_counter;
                    if i = j then begin
                      (* Single-tuple violation of a constant rhs: repair by
                         setting the value to the pattern constant. *)
                      match rhs_pat with
                      | Cfd.Const c ->
                          let target = Term.Const c in
                          let cond =
                            List.map
                              (fun (pos, _) -> Cond.Ceq (ci.args.(pos), ci.args.(pos)))
                              lhs
                            @ [ Cond.Cneq (z, target) ]
                          in
                          asm.rspecs <-
                            asm.rspecs
                            @ [
                                {
                                  r_origin = Literal.From_cfd cfd.Cfd.id;
                                  r_group = gid;
                                  r_cond = cond;
                                  r_subject = z;
                                  r_replacement = target;
                                  r_drops_sims = false;
                                  r_drops_eqs = [];
                                };
                              ]
                      | Cfd.Wildcard -> ()
                    end
                    else begin
                      (* Split the shared wildcard left-hand-side
                         occurrences apart (Example 3.1). *)
                      let split_pairs =
                        List.filter_map
                          (fun (pos, pat) ->
                            match pat with
                            | Cfd.Const _ -> None
                            | Cfd.Wildcard ->
                                let x = ci.args.(pos) in
                                if Term.equal x cj.args.(pos) then begin
                                  let x1 =
                                    split_term mode var_gen
                                      (Printf.sprintf "g%da" gid) x
                                  in
                                  let x2 =
                                    split_term mode var_gen
                                      (Printf.sprintf "g%db" gid) x
                                  in
                                  (* Every occurrence moves to x1, then the
                                     second literal's occurrence to x2. *)
                                  subst_everywhere asm x x1;
                                  cj.args.(pos) <- x2;
                                  asm.eqs <- asm.eqs @ [ (x1, x2) ];
                                  Some (x1, x2)
                                end
                                else None)
                          lhs
                      in
                      let z = ci.args.(rhs_pos) and t = cj.args.(rhs_pos) in
                      (* Left-hand-side positions whose terms are only
                         hypothetically equal (an induced violation, round
                         >= 2) contribute their equality to the condition:
                         the repair stays inert until the inducing repair
                         actually makes the terms equal. *)
                      let hyp_eqs =
                        List.filter_map
                          (fun (pos, _) ->
                            let a = ci.args.(pos) and b = cj.args.(pos) in
                            if Term.equal a b then None
                            else Some (Cond.Ceq (a, b)))
                          lhs
                      in
                      let cond =
                        List.map (fun (a, b) -> Cond.Ceq (a, b)) split_pairs
                        @ hyp_eqs
                        @ [ Cond.Cneq (z, t) ]
                      in
                      let mk_rhs subject replacement =
                        {
                          r_origin = Literal.From_cfd cfd.Cfd.id;
                          r_group = gid;
                          r_cond = cond;
                          r_subject = subject;
                          r_replacement = replacement;
                          r_drops_sims = false;
                          r_drops_eqs = [];
                        }
                      in
                      let lhs_specs =
                        List.concat_map
                          (fun (x1, x2) ->
                            let f1 =
                              fresh_replacement mode repair_gen
                                (Printf.sprintf "g%dL" gid)
                            and f2 =
                              fresh_replacement mode repair_gen
                                (Printf.sprintf "g%dR" gid)
                            in
                            asm.neqs <- asm.neqs @ [ (f1, x2); (f2, x1) ];
                            [
                              {
                                r_origin = Literal.From_cfd cfd.Cfd.id;
                                r_group = gid;
                                r_cond = cond;
                                r_subject = x1;
                                r_replacement = f1;
                                r_drops_sims = false;
                                r_drops_eqs = [ (x1, x2) ];
                              };
                              {
                                r_origin = Literal.From_cfd cfd.Cfd.id;
                                r_group = gid;
                                r_cond = cond;
                                r_subject = x2;
                                r_replacement = f2;
                                r_drops_sims = false;
                                r_drops_eqs = [ (x1, x2) ];
                              };
                            ])
                          split_pairs
                      in
                      asm.rspecs <-
                        asm.rspecs @ [ mk_rhs z t; mk_rhs t z ] @ lhs_specs
                    end
                  end
                end
              done
            done)
      ctx.Context.cfds
  done;
  (* Materialise literals. *)
  let sim_literals = List.map (fun (a, b) -> Literal.Sim (a, b)) asm.sims in
  let repair_literals =
    List.map
      (fun r ->
        let drops =
          (if r.r_drops_sims then
             List.filter
               (fun l -> List.exists (Term.equal r.r_subject) (Literal.terms l))
               sim_literals
           else [])
          @ List.map (fun (a, b) -> Literal.Eq (a, b)) r.r_drops_eqs
        in
        Literal.Repair
          {
            origin = r.r_origin;
            group = r.r_group;
            cond = r.r_cond;
            subject = r.r_subject;
            replacement = r.r_replacement;
            drops;
          })
      asm.rspecs
  in
  let head =
    Literal.Rel
      { pred = Schema.name config.Config.target; args = asm.head_args }
  in
  let body =
    List.map (fun c -> Literal.Rel { pred = c.pred; args = c.args }) asm.cells
    @ sim_literals
    @ List.map (fun (a, b) -> Literal.Eq (a, b)) asm.eqs
    @ List.map (fun (a, b) -> Literal.Neq (a, b)) asm.neqs
    @ repair_literals
  in
  Clause.make ~head body
