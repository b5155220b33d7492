open Dphls_core
module Score = Dphls_util.Score

module Linear = struct
  let ptr_diag = 0
  let ptr_up = 1
  let ptr_left = 2
  let ptr_end = 3

  let fsm =
    {
      Traceback.n_states = 1;
      start_state = 0;
      transition =
        (fun _state ~ptr ->
          if ptr = ptr_diag then (0, Traceback.Diag)
          else if ptr = ptr_up then (0, Traceback.Up)
          else if ptr = ptr_left then (0, Traceback.Left)
          else (0, Traceback.Stop));
    }
end

module Affine = struct
  let src_diag = 0
  let src_del = 1
  let src_ins = 2
  let src_end = 3

  let encode ~h_src ~d_ext ~i_ext =
    h_src lor ((if d_ext then 1 else 0) lsl 2) lor ((if i_ext then 1 else 0) lsl 3)

  let st_h = 0
  let st_d = 1
  let st_i = 2

  let fsm =
    {
      Traceback.n_states = 3;
      start_state = st_h;
      transition =
        (fun state ~ptr ->
          let h_src = ptr land 3 in
          let d_ext = ptr land 4 <> 0 in
          let i_ext = ptr land 8 <> 0 in
          if state = st_h then
            if h_src = src_diag then (st_h, Traceback.Diag)
            else if h_src = src_del then (st_d, Traceback.Stay)
            else if h_src = src_ins then (st_i, Traceback.Stay)
            else (st_h, Traceback.Stop)
          else if state = st_d then ((if d_ext then st_d else st_h), Traceback.Up)
          else ((if i_ext then st_i else st_h), Traceback.Left));
    }
end

module Two_piece = struct
  let src_diag = 0
  let src_d1 = 1
  let src_i1 = 2
  let src_d2 = 3
  let src_i2 = 4
  let src_end = 5

  let encode ~h_src ~d1_ext ~i1_ext ~d2_ext ~i2_ext =
    let bit v pos = (if v then 1 else 0) lsl pos in
    h_src lor bit d1_ext 3 lor bit i1_ext 4 lor bit d2_ext 5 lor bit i2_ext 6

  let st_h = 0
  let st_d1 = 1
  let st_i1 = 2
  let st_d2 = 3
  let st_i2 = 4

  let fsm =
    {
      Traceback.n_states = 5;
      start_state = st_h;
      transition =
        (fun state ~ptr ->
          let h_src = ptr land 7 in
          let ext pos = ptr land (1 lsl pos) <> 0 in
          if state = st_h then
            if h_src = src_diag then (st_h, Traceback.Diag)
            else if h_src = src_d1 then (st_d1, Traceback.Stay)
            else if h_src = src_i1 then (st_i1, Traceback.Stay)
            else if h_src = src_d2 then (st_d2, Traceback.Stay)
            else if h_src = src_i2 then (st_i2, Traceback.Stay)
            else (st_h, Traceback.Stop)
          else if state = st_d1 then ((if ext 3 then st_d1 else st_h), Traceback.Up)
          else if state = st_i1 then ((if ext 4 then st_i1 else st_h), Traceback.Left)
          else if state = st_d2 then ((if ext 5 then st_d2 else st_h), Traceback.Up)
          else ((if ext 6 then st_i2 else st_h), Traceback.Left));
    }
end

let best2 objective (s1, t1) (s2, t2) =
  if Score.better objective s2 s1 then (s2, t2) else (s1, t1)

let best_of objective = function
  | [] -> invalid_arg "Kdefs.best_of: empty"
  | first :: rest -> List.fold_left (best2 objective) first rest

let dna_char_bits = Dphls_alphabet.Dna.bits
