open Dlearn_relation
module Obs = Dlearn_obs.Obs

let rows_written_c = Obs.counter "scale_gen.rows_written"

type config = {
  tuples : int;
  dirt_rate : float;
  duplicate_rate : float;
  zipf_s : float;
  vocab : int;
  seed : int;
}

let default =
  {
    tuples = 100_000;
    dirt_rate = 0.1;
    duplicate_rate = 0.05;
    zipf_s = 1.1;
    vocab = 512;
    seed = 7;
  }

type summary = {
  dir : string;
  relations : (string * int) list;
  bytes : int;
  duplicates : int;
  corrupted : int;
}

let src_name = "src_products"
let dst_name = "dst_products"
let title_pos = 1

let schema name =
  Schema.make name
    [
      { Schema.attr_name = "pid"; domain = Schema.Dint };
      { Schema.attr_name = "title"; domain = Schema.Dstring };
      { Schema.attr_name = "brand"; domain = Schema.Dstring };
      { Schema.attr_name = "category"; domain = Schema.Dstring };
      { Schema.attr_name = "price"; domain = Schema.Dfloat };
    ]

(* {2 Vocabulary}

   Words are deterministic functions of their index — no RNG involved —
   so the value universe depends only on [vocab], while row sampling
   depends only on [seed]. Word lengths vary from 4 to 8 characters and
   titles carry one to four words plus optional adjective and model
   code, so title lengths spread over roughly 10–55 characters: the
   length diversity real product feeds show, and what gives the
   Sim_index length-band prefilter its bite (docs/SCALE.md). *)

let syllables =
  [|
    "ba"; "co"; "da"; "fe"; "gi"; "ho"; "ju"; "ka"; "lo"; "mi";
    "na"; "pe"; "qu"; "ra"; "so"; "tu"; "ve"; "wi"; "xo"; "za";
  |]

let word ~syls k =
  let b = Buffer.create (2 * syls) in
  let k = ref k in
  for _ = 1 to syls do
    Buffer.add_string b syllables.(!k mod Array.length syllables);
    k := (!k / 7) + 13
  done;
  Buffer.contents b

let adjectives =
  [| "ultra"; "pro"; "max"; "eco"; "smart"; "classic"; "prime"; "turbo" |]

let categories =
  [| "electronics"; "home"; "garden"; "toys"; "sports"; "office"; "kitchen"; "outdoors" |]

(* Normalized cumulative Zipf weights: w_k ∝ 1/(k+1)^s. *)
let zipf_cdf ~s n =
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let sample_zipf rng cdf =
  let u = Random.State.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

type entity = {
  pid : int;
  title : string;
  brand : string;
  category : string;
  price : float;
}

let render_row e =
  Csv.render_line
    [
      string_of_int e.pid;
      e.title;
      e.brand;
      e.category;
      Printf.sprintf "%.2f" e.price;
    ]

let validate c =
  let rate what r =
    if r >= 0.0 && r <= 1.0 then Ok ()
    else Error (Printf.sprintf "%s %g: must be in [0, 1]" what r)
  in
  if c.tuples <= 0 then
    Error (Printf.sprintf "tuples %d: must be positive" c.tuples)
  else if c.vocab < 16 then
    Error (Printf.sprintf "vocab %d: must be at least 16" c.vocab)
  else
    Result.bind (rate "dirt_rate" c.dirt_rate) (fun () ->
        rate "duplicate_rate" c.duplicate_rate)

let generate ?(config = default) dir =
  (match validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Scale_gen: " ^ msg));
  let rng = Random.State.make [| config.seed; 0x5CA1E |] in
  let nouns =
    Array.init config.vocab (fun i -> word ~syls:(2 + (i mod 3)) ((i * 131) + 17))
  in
  let brands =
    Array.init
      (max 16 (config.vocab / 8))
      (fun i -> String.capitalize_ascii (word ~syls:2 ((i * 257) + 43)))
  in
  let noun_cdf = zipf_cdf ~s:config.zipf_s (Array.length nouns) in
  let brand_cdf = zipf_cdf ~s:config.zipf_s (Array.length brands) in
  let fresh_entity pid =
    let brand = brands.(sample_zipf rng brand_cdf) in
    let parts = ref [] in
    if Random.State.float rng 1.0 < 0.3 then
      parts :=
        Printf.sprintf "%c%d"
          (Char.chr (Char.code 'A' + Random.State.int rng 26))
          (10 + Random.State.int rng 990)
        :: !parts;
    parts := brand :: !parts;
    for _ = 1 to Random.State.int rng 4 do
      parts := nouns.(Random.State.int rng (Array.length nouns)) :: !parts
    done;
    parts := nouns.(sample_zipf rng noun_cdf) :: !parts;
    if Random.State.float rng 1.0 < 0.5 then
      parts := adjectives.(Random.State.int rng (Array.length adjectives)) :: !parts;
    {
      pid;
      title = String.concat " " !parts;
      brand;
      category = categories.(Random.State.int rng (Array.length categories));
      price = float_of_int (100 + Random.State.int rng 99900) /. 100.0;
    }
  in
  (* The dirty twin of an entity: the marketplace-side row, title and
     brand corrupted at [dirt_rate] with the shared [Corrupt] kit. *)
  let dirty e pid =
    let title =
      e.title
      |> Corrupt.maybe rng config.dirt_rate (Corrupt.product_title_variant rng)
      |> Corrupt.maybe rng config.dirt_rate (Corrupt.typo rng)
    in
    let brand = Corrupt.maybe rng config.dirt_rate (Corrupt.typo rng) e.brand in
    { e with pid; title; brand }
  in
  Storage.write_manifest dir [ schema src_name; schema dst_name ];
  let src_oc = open_out (Storage.csv_path dir src_name) in
  let dst_oc = open_out (Storage.csv_path dir dst_name) in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr src_oc;
      close_out_noerr dst_oc)
    (fun () ->
      let duplicates = ref 0 in
      let corrupted = ref 0 in
      let prev = ref None in
      for i = 0 to config.tuples - 1 do
        let entity =
          match !prev with
          | Some e when Random.State.float rng 1.0 < config.duplicate_rate ->
              incr duplicates;
              { e with pid = i }
          | _ -> fresh_entity i
        in
        prev := Some entity;
        let twin = dirty entity (config.tuples + i) in
        if twin.title <> entity.title then incr corrupted;
        output_string src_oc (render_row entity);
        output_char src_oc '\n';
        output_string dst_oc (render_row twin);
        output_char dst_oc '\n';
        Obs.add rows_written_c 2
      done;
      let bytes = pos_out src_oc + pos_out dst_oc in
      {
        dir;
        relations = [ (src_name, config.tuples); (dst_name, config.tuples) ];
        bytes;
        duplicates = !duplicates;
        corrupted = !corrupted;
      })

let pp_summary fmt s =
  Format.fprintf fmt "@[<v>scale dataset in %s (%d bytes)" s.dir s.bytes;
  List.iter
    (fun (name, rows) -> Format.fprintf fmt "@,  %s: %d rows" name rows)
    s.relations;
  Format.fprintf fmt "@,  duplicates: %d, corrupted titles: %d@]" s.duplicates
    s.corrupted
