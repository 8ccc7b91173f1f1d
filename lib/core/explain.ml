open Dlearn_logic

let format_direct theta (clause : Clause.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "covered by direct subsumption; literal images:\n";
  List.iter
    (fun l ->
      Buffer.add_string buf
        (Printf.sprintf "  %s  -->  %s\n" (Literal.to_string l)
           (Literal.to_string (Substitution.apply_literal theta l))))
    (clause.Clause.head :: clause.Clause.body);
  Buffer.add_string buf
    (Format.asprintf "with substitution %a" Substitution.pp theta);
  Buffer.contents buf

let positive (ctx : Context.t) clause e =
  let budget = ctx.Context.config.Config.subsumption_budget in
  let entry = Coverage.ground ctx e in
  let ge = entry.Context.ground in
  match Subsumption.subsumes ~budget clause ge with
  | Subsumption.Subsumed theta -> Some (format_direct theta clause)
  | Subsumption.Budget_exhausted | Subsumption.Not_subsumed ->
      let prepared = Coverage.prepare ctx clause in
      if not (Coverage.covers_positive ctx prepared e) then None
      else begin
        (* Name the repaired-clause pair supporting each part of the
           Definition 3.4 check. *)
        let crs = Dlearn_parallel.Memo.force prepared.Coverage.repairs in
        let grs = Dlearn_parallel.Memo.force entry.Context.repairs in
        let buf = Buffer.create 256 in
        Buffer.add_string buf
          "covered through the repair semantics (Definition 3.4):\n";
        List.iteri
          (fun i cr ->
            let support =
              List.find_index
                (fun gr ->
                  Subsumption.subsumes_bool ~budget ~repair_connectivity:false
                    cr gr)
                grs
            in
            match support with
            | Some j ->
                Buffer.add_string buf
                  (Printf.sprintf
                     "  repaired clause %d subsumes repair %d of the example:\n%s\n"
                     i j (Clause.to_string cr))
            | None -> ())
          crs;
        Some (Buffer.contents buf)
      end
