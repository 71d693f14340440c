//! Graph generators: classic control families and the paper's dense
//! hard/easy almost-clique families.

mod classic;
mod dense;
mod mixed;

pub use classic::{
    clique_ring, complete, complete_bipartite, cycle, gnp, hypercube, isolated_cliques, path,
    random_regular, random_tree, star,
};
pub use dense::{
    bipartite_regular_blueprint, easy_cliques, hard_cliques, hard_cliques_with_blueprint,
    mixed_dense, verify_hard_instance, BlueprintKind, EasyCliqueParams, HardCliqueInstance,
    HardCliqueParams, LoopholeKind, MixedParams,
};
pub use mixed::{sparse_dense_mix, SparseDenseInstance, SparseDenseParams};
