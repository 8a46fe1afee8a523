let search ?domains ?order ?limit ?limit_per_domain ?budget ?metrics p g space
    =
  Ws.search ?domains ?order ?limit ?limit_per_domain ?budget ?metrics p g
    space

let count_matches ?domains ?budget ?(strategy = Engine.optimized) p g =
  let space =
    Feasible.compute ~retrieval:strategy.Engine.retrieval p g
  in
  let space =
    if strategy.Engine.refine then
      fst (Refine.refine ?level:strategy.Engine.refine_level p g space)
    else space
  in
  let order =
    if strategy.Engine.optimize_order then
      Order.greedy p ~sizes:(Feasible.sizes space)
    else Order.identity p
  in
  (search ?domains ?budget ~order p g space).Search.n_found
