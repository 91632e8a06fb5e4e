//! Machine lifecycle ownership — the claim table that keeps the
//! components changing one cell's fleet (churn, the fault plane, the
//! autoscaler) from racing on one machine.
//!
//! All three drain, crash, restore and admit machines on the same
//! timeline. Without coordination, churn could "fail" a machine the
//! autoscaler is mid-way through provisioning or draining (or restore
//! one the autoscaler already decommissioned), leaving the components
//! with contradictory views of the fleet. An [`OwnershipGuard`] records
//! who holds each machine: a component claims a machine before taking it
//! through a lifecycle transition and releases it when the machine is
//! plainly online (or gone for good). A claim that fails means *someone
//! else is operating on that machine* — the caller skips it and moves
//! on.
//!
//! There is one table per cell, a field of the cell's
//! [`EngineState`](crate::engine::EngineState) created with the engine.
//! Components claim, override and release only through the engine's
//! methods, which also run the order-sensitive sequences (admit then
//! release, claim then drain then take offline) as one call each.

use ctlm_trace::MachineId;

use crate::idmap::IdMap;

/// Who currently owns a machine's lifecycle transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifecycleOwner {
    /// A churn source drained it (and will restore it).
    Churn,
    /// The autoscaler is provisioning, draining or parking it.
    Autoscaler,
    /// The fault plane crashed it (and will recover it). Crashes are not
    /// polite: they take the machine through
    /// [`EngineState::override_claim`](crate::engine::EngineState::override_claim)
    /// even when another owner holds it mid-transition.
    Fault,
}

impl LifecycleOwner {
    /// Static tag for decision records (crash/override provenance).
    pub fn name(self) -> &'static str {
        match self {
            Self::Churn => "churn",
            Self::Autoscaler => "autoscaler",
            Self::Fault => "fault",
        }
    }
}

/// A cell's claim table over machine ids — owned by the cell's engine.
#[derive(Debug)]
pub struct OwnershipGuard {
    owners: IdMap<MachineId, LifecycleOwner>,
}

impl OwnershipGuard {
    /// An empty table.
    pub(crate) fn new() -> Self {
        Self {
            owners: IdMap::default(),
        }
    }

    /// Claims `id` for `owner`. Returns false — and records nothing —
    /// when any owner (including `owner` itself) already holds the
    /// machine: claims are exclusive and never reentrant.
    pub(crate) fn try_claim(&mut self, id: MachineId, owner: LifecycleOwner) -> bool {
        if self.owners.contains_key(&id) {
            return false;
        }
        self.owners.insert(id, owner);
        true
    }

    /// Forcibly claims `id` for `owner`, displacing whatever claim was in
    /// place, and returns the displaced owner (if any). This is the crash
    /// path: a machine that abruptly dies mid-drain or mid-provision now
    /// belongs to the fault plane, and the displaced component must treat
    /// its in-flight transition as void — [`Self::release_owned`] is how
    /// it discovers the displacement without leaking the claim.
    pub(crate) fn override_claim(
        &mut self,
        id: MachineId,
        owner: LifecycleOwner,
    ) -> Option<LifecycleOwner> {
        self.owners.insert(id, owner)
    }

    /// Releases `id` only if `owner` still holds it. Returns true when
    /// the release happened; false means the claim was displaced (or
    /// never existed) and the caller must not touch the machine — its
    /// new owner is responsible for the rest of the lifecycle.
    pub(crate) fn release_owned(&mut self, id: MachineId, owner: LifecycleOwner) -> bool {
        if self.owners.get(&id) == Some(&owner) {
            self.owners.remove(&id);
            true
        } else {
            false
        }
    }

    /// The current owner of `id`, if claimed.
    pub fn owner(&self, id: MachineId) -> Option<LifecycleOwner> {
        self.owners.get(&id).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_are_exclusive_across_and_within_owners() {
        let mut g = OwnershipGuard::new();
        assert!(g.try_claim(7, LifecycleOwner::Churn));
        assert!(!g.try_claim(7, LifecycleOwner::Autoscaler));
        assert!(!g.try_claim(7, LifecycleOwner::Churn), "not reentrant");
        assert_eq!(g.owner(7), Some(LifecycleOwner::Churn));
        assert!(g.release_owned(7, LifecycleOwner::Churn));
        assert!(g.try_claim(7, LifecycleOwner::Autoscaler));
        assert_eq!(g.owner(7), Some(LifecycleOwner::Autoscaler));
    }

    #[test]
    fn override_claim_displaces_and_owned_release_refuses_stale_claims() {
        let mut g = OwnershipGuard::new();
        // A crash lands while the autoscaler is mid-provision: the
        // override wins and reports whom it displaced.
        assert!(g.try_claim(3, LifecycleOwner::Autoscaler));
        assert_eq!(
            g.override_claim(3, LifecycleOwner::Fault),
            Some(LifecycleOwner::Autoscaler)
        );
        assert_eq!(g.owner(3), Some(LifecycleOwner::Fault));
        // The displaced owner's release is refused — the claim must not
        // leak back into "unclaimed" while the fault plane owns it.
        assert!(!g.release_owned(3, LifecycleOwner::Autoscaler));
        assert_eq!(g.owner(3), Some(LifecycleOwner::Fault));
        // The current owner's release succeeds exactly once.
        assert!(g.release_owned(3, LifecycleOwner::Fault));
        assert!(!g.release_owned(3, LifecycleOwner::Fault));
        assert_eq!(g.owner(3), None);
    }

    #[test]
    fn override_claim_on_unclaimed_machine_acts_like_a_claim() {
        let mut g = OwnershipGuard::new();
        assert_eq!(g.override_claim(9, LifecycleOwner::Fault), None);
        assert_eq!(g.owner(9), Some(LifecycleOwner::Fault));
        assert!(!g.try_claim(9, LifecycleOwner::Churn));
        assert!(g.release_owned(9, LifecycleOwner::Fault));
    }
}
