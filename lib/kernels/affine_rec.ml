module Score = Dphls_util.Score

let init_row_global ~gap_open ~gap_extend ~layer ~col =
  if layer = 0 then Score.add gap_open (gap_extend * (col + 1)) else Score.neg_inf

let init_zero ~layer = if layer = 0 then 0 else Score.neg_inf

let origin_global ~layer = if layer = 0 then 0 else Score.neg_inf
