"""Fingerprints of the work each workload does, recorded from the
library at the commit that introduced the benchmark.  They must not
depend on the seed; `run.py` marks a run incorrect when its fingerprint
differs, so a change that shrinks or reshapes the work shows.

Hom ranks are `[lowest degree, [rank per degree]]` per ordered pair;
`comp_matrices` counts the composition matrices whose two source Homs
and target Hom all have nonzero rank; tower ranks are those of the reduced Godement
tower total over the whole site.
"""

FINGERPRINTS = {'enrich_q': {'alt_hom_ranks': {'1->1': [-3, [0, 0, 1, 1]],
                                '1->2': [-3, [0, 0, 2, 2]],
                                '2->1': [-3, [0, 0, 2, 2]],
                                '2->2': [-3, [0, 0, 4, 4]]},
              'comp_matrices': 24,
              'functor_hom_ranks': {'1->1': [-3, [1, 1, 1, 1]]},
              'functor_obj_map': {'1': 2},
              'twists': 3},
 'pretr_laws': {'comp_matrices': 279,
                'hom_ranks': {'t0->t0': [-1, [2, 5, 2]],
                              't0->t1': [-1, [2, 3, 1]],
                              't0->t2': [-1, [2, 5, 4, 1]],
                              't1->t0': [-1, [1, 3, 2]],
                              't1->t1': [-1, [1, 2, 1]],
                              't1->t2': [-1, [1, 3, 3, 1]],
                              't2->t0': [-2, [1, 4, 5, 2]],
                              't2->t1': [-2, [1, 3, 3, 1]],
                              't2->t2': [-2, [1, 4, 6, 4, 1]]},
                'twists': 3},
 'sheaf_hypercoh': {'comp_matrices': 24,
                    'rgamma_hom_ranks': {"(('x', 'y'),)->(('x', 'y'),)": [0, [16, 16]],
                                         "(('x', 'y'),)->()": [0, [8, 8]],
                                         "()->(('x', 'y'),)": [0, [8, 8]],
                                         '()->()': [0, [4, 4]]},
                    'tower_ranks': {'circle6/K1': [0, [12, 24, 12]],
                                    'circle6/K2': [-1, [6, 18, 18, 6]],
                                    'pseudo_circle/K1': [0, [8, 16, 8]],
                                    'pseudo_circle/K2': [-1, [4, 12, 12, 4]]}}}
