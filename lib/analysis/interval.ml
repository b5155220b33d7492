module Score = Dphls_util.Score

type t = {
  lo : int;
  hi : int;
  finite : bool;
  neg_inf : bool;
  pos_inf : bool;
}

let empty = { lo = 0; hi = 0; finite = false; neg_inf = false; pos_inf = false }

let is_empty t = not (t.finite || t.neg_inf || t.pos_inf)

let of_score x =
  if Score.is_neg_inf x then { empty with neg_inf = true }
  else if Score.is_pos_inf x then { empty with pos_inf = true }
  else { empty with lo = x; hi = x; finite = true }

let join a b =
  {
    lo =
      (if a.finite && b.finite then min a.lo b.lo
       else if a.finite then a.lo
       else b.lo);
    hi =
      (if a.finite && b.finite then max a.hi b.hi
       else if a.finite then a.hi
       else b.hi);
    finite = a.finite || b.finite;
    neg_inf = a.neg_inf || b.neg_inf;
    pos_inf = a.pos_inf || b.pos_inf;
  }

(* [join t (of_score x)] without building either record when [x] is
   already covered: the width analyzer observes every probe output *)
let observe t x =
  if Score.is_neg_inf x then if t.neg_inf then t else { t with neg_inf = true }
  else if Score.is_pos_inf x then if t.pos_inf then t else { t with pos_inf = true }
  else if not t.finite then { t with lo = x; hi = x; finite = true }
  else if x < t.lo then { t with lo = x }
  else if x > t.hi then { t with hi = x }
  else t

let equal a b =
  a.finite = b.finite && a.neg_inf = b.neg_inf && a.pos_inf = b.pos_inf
  && ((not a.finite) || (a.lo = b.lo && a.hi = b.hi))

let shift t ~lo_delta ~hi_delta =
  if t.finite then { t with lo = t.lo + lo_delta; hi = t.hi + hi_delta } else t

let low_value t =
  if t.neg_inf then Some Score.neg_inf
  else if t.finite then Some t.lo
  else if t.pos_inf then Some Score.pos_inf
  else None

let high_value t =
  if t.pos_inf then Some Score.pos_inf
  else if t.finite then Some t.hi
  else if t.neg_inf then Some Score.neg_inf
  else None

let finite_low t = if t.finite then Some t.lo else None
let finite_high t = if t.finite then Some t.hi else None

let fits t ~bits =
  let max_repr = (1 lsl (bits - 1)) - 1 in
  let min_repr = -(1 lsl (bits - 1)) in
  (not t.finite) || (t.lo >= min_repr && t.hi <= max_repr)

let to_string t =
  if is_empty t then "⊥"
  else
    let parts = ref [] in
    if t.pos_inf then parts := "+inf" :: !parts;
    if t.finite then parts := Printf.sprintf "[%d,%d]" t.lo t.hi :: !parts;
    if t.neg_inf then parts := "-inf" :: !parts;
    String.concat "∪" !parts
