//! The per-process model vault: tenant (network) → swappable model handle.
//!
//! A serving replica hosts many tenants. Each tenant is one water network
//! plus one [`ModelHandle`] shared by every session of that network — so a
//! single successful install upgrades the whole tenant atomically while
//! requests in flight finish on the snapshot they already hold. The vault
//! is the registry of those tenants and the entry point for the hot-swap
//! endpoint (`POST /v1/models/{network}`).
//!
//! Networks are registered at process start (they are topology, not
//! something clients upload); artifacts then arrive over the wire and are
//! validated by [`ModelHandle::install`] — fail-closed, the previous model
//! keeps serving on any rejection.

use std::collections::BTreeMap;

use aqua_core::{
    AquaError, AquaScaleConfig, HostedSession, ModelHandle, ProfileArtifact, ProfileModel,
};
use aqua_net::Network;
use aqua_telemetry::sync::{Arc, Mutex, MutexGuard};

#[derive(Clone)]
struct Tenant {
    net: Network,
    handle: Arc<ModelHandle>,
}

/// Registry of hosted tenants: network name → (topology, model handle).
#[derive(Default)]
pub struct ModelVault {
    tenants: Mutex<BTreeMap<String, Tenant>>,
}

impl ModelVault {
    /// An empty vault.
    pub fn new() -> ModelVault {
        ModelVault::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Tenant>> {
        self.tenants.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn tenant(&self, network: &str) -> Option<Tenant> {
        self.lock().get(network).cloned()
    }

    /// Registers a tenant from an in-process trained deployment. Returns
    /// the shared handle (version 1) for sessions to follow.
    pub fn register(
        &self,
        net: Network,
        config: AquaScaleConfig,
        profile: ProfileModel,
    ) -> Arc<ModelHandle> {
        let handle = Arc::new(ModelHandle::new(config, profile));
        self.lock().insert(
            net.name().to_string(),
            Tenant {
                net,
                handle: Arc::clone(&handle),
            },
        );
        handle
    }

    /// Registers a tenant from a loaded `.aquaprof`, verifying it matches
    /// `net`.
    pub fn register_artifact(
        &self,
        net: Network,
        artifact: ProfileArtifact,
    ) -> Result<Arc<ModelHandle>, AquaError> {
        let handle = Arc::new(ModelHandle::from_artifact(&net, artifact)?);
        self.lock().insert(
            net.name().to_string(),
            Tenant {
                net,
                handle: Arc::clone(&handle),
            },
        );
        Ok(handle)
    }

    /// Hot-swaps the named tenant's model from raw `.aquaprof` bytes.
    /// `None` when no such tenant is registered; otherwise the result of
    /// [`ModelHandle::install`] — the new version on success, and on any
    /// error the previous model stays live.
    ///
    /// The vault lock is released before validation: a slow canary predict
    /// never blocks other tenants (or concurrent reads of this one).
    pub fn install(&self, network: &str, bytes: &[u8]) -> Option<Result<u64, AquaError>> {
        let tenant = self.tenant(network)?;
        Some(tenant.handle.install(&tenant.net, bytes))
    }

    /// The named tenant's model handle.
    pub fn handle(&self, network: &str) -> Option<Arc<ModelHandle>> {
        self.tenant(network).map(|t| t.handle)
    }

    /// Registered tenants as `(network, live model version)`, sorted by
    /// network name.
    pub fn tenants(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .lock()
            .iter()
            .map(|(name, t)| (name.clone(), t.handle.version()))
            .collect();
        out.sort();
        out
    }

    /// Creates a hosted session against the named tenant's shared handle,
    /// or `None` for an unknown tenant.
    ///
    /// `_seed` is ignored: a session draws no random numbers. The argument
    /// stays until the ledger benchmark, which passes one, next changes.
    pub fn create_session(&self, network: &str, _seed: u64) -> Option<HostedSession> {
        let tenant = self.tenant(network)?;
        Some(HostedSession::with_handle(tenant.net, tenant.handle))
    }
}
