(* Output checks against recorded values. A batch run's outputs are
   summarised as one digest over every (score, cigar) in input order plus
   the modelled cycle totals; perfbench/expected.json records those for
   a fixed canary input of each batch workload, so every run can prove
   the program still computes what it computed when the benchmark was
   written, whatever seed the run itself uses. *)

module Json = Dphls_analysis.Json

let digest results =
  let b = Buffer.create 4096 in
  List.iter
    (fun (score, cigar) ->
      Buffer.add_string b (string_of_int score);
      Buffer.add_char b '\t';
      Buffer.add_string b cigar;
      Buffer.add_char b '\n')
    results;
  Digest.to_hex (Digest.string (Buffer.contents b))

type canary = {
  seed : int;
  pairs : int;  (** leading pairs of the seed's input set *)
  workers : int;
  digest : string;
  seq_cycles : int;
  overlapped_cycles : int;
}

let path = "perfbench/expected.json"

let load_canary ?(file = path) workload =
  let text = In_channel.with_open_bin file In_channel.input_all in
  let ( >>= ) o f = match o with Some x -> f x | None -> None in
  let num j k =
    Json.member k j >>= function Json.Num f -> Some (int_of_float f) | _ -> None
  in
  match Json.parse text with
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)
  | Ok j -> (
    match
      Json.member "canary" j >>= Json.member workload >>= fun c ->
      num c "seed" >>= fun seed ->
      num c "pairs" >>= fun pairs ->
      num c "workers" >>= fun workers ->
      (Json.member "digest" c >>= function Json.Str s -> Some s | _ -> None)
      >>= fun digest ->
      num c "seq_cycles" >>= fun seq_cycles ->
      num c "overlapped_cycles" >>= fun overlapped_cycles ->
      Some { seed; pairs; workers; digest; seq_cycles; overlapped_cycles }
    with
    | Some c -> c
    | None -> failwith (Printf.sprintf "%s: no canary for %s" file workload))

(* Each mismatch between a recorded canary and a fresh run, named. *)
let canary_mismatches (c : canary) ~digest ~seq_cycles ~overlapped_cycles =
  List.filter_map Fun.id
    [
      (if digest <> c.digest then
         Some (Printf.sprintf "digest %s, recorded %s" digest c.digest)
       else None);
      (if seq_cycles <> c.seq_cycles then
         Some
           (Printf.sprintf "seq_cycles %d, recorded %d" seq_cycles c.seq_cycles)
       else None);
      (if overlapped_cycles <> c.overlapped_cycles then
         Some
           (Printf.sprintf "overlapped_cycles %d, recorded %d" overlapped_cycles
              c.overlapped_cycles)
       else None);
    ]
