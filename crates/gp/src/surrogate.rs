//! The name `perfbench/` wraps the fitted model in. Every fit is exact, so
//! [`Surrogate`] has one variant and dereferences to the [`Gpr`] inside it;
//! no workspace code uses it.

use crate::model::Gpr;

/// A fitted model, as `perfbench/` names it.
pub enum Surrogate {
    /// The exact GPR posterior.
    Exact(Gpr),
}

impl std::ops::Deref for Surrogate {
    type Target = Gpr;

    fn deref(&self) -> &Gpr {
        match self {
            Surrogate::Exact(m) => m,
        }
    }
}
