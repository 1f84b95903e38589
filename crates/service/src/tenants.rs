//! Per-tenant quotas: token-bucket admission for CPU-heavy solve
//! endpoints plus occupancy caps on the shared caches.
//!
//! Tenancy is declared by the `X-Tenant` request header (absent means
//! the anonymous tenant `""`). Enforcement lives in the *handler*
//! layer ([`crate::server::ServiceState`]), deliberately not in the
//! server's I/O loop, so any server driving the handler applies
//! byte-identical policy.
//!
//! Two mechanisms:
//!
//! - **Rate**: each tenant has a token bucket ([`QuotaConfig::solve_rate`]
//!   tokens/second, burst [`QuotaConfig::solve_burst`]). Every
//!   `/solve`, `/solve/anytime`, and `/batch` admission costs one
//!   token; an empty bucket draws `429` with a `Retry-After` estimate
//!   of when the next token lands.
//! - **Occupancy**: a tenant may hold at most
//!   [`QuotaConfig::max_instances`] slots of the instance store and
//!   [`QuotaConfig::max_sessions`] parked anytime sessions, so one
//!   tenant's working set cannot evict everyone else's. These are
//!   checked by the stores themselves under their own locks, keyed by
//!   the tenant tag stamped on each entry.
//!
//! Quotas default to **off** (every check admits) and are switched on
//! with explicit limits — the daemon exposes them as `--tenant-*`
//! flags.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Limits applied to every tenant individually.
#[derive(Clone, Debug)]
pub struct QuotaConfig {
    /// Steady-state solve admissions per second per tenant.
    pub solve_rate: f64,
    /// Bucket capacity: how many solves may burst back-to-back.
    pub solve_burst: f64,
    /// Maximum instance-store slots one tenant may occupy.
    pub max_instances: usize,
    /// Maximum parked anytime sessions one tenant may hold.
    pub max_sessions: usize,
}

impl QuotaConfig {
    /// The "off" configuration: unlimited everything.
    pub fn unlimited() -> Self {
        Self {
            solve_rate: f64::INFINITY,
            solve_burst: f64::INFINITY,
            max_instances: usize::MAX,
            max_sessions: usize::MAX,
        }
    }

    /// Whether any limit is actually finite.
    pub fn is_limiting(&self) -> bool {
        self.solve_rate.is_finite()
            || self.solve_burst.is_finite()
            || self.max_instances != usize::MAX
            || self.max_sessions != usize::MAX
    }
}

impl Default for QuotaConfig {
    fn default() -> Self {
        Self::unlimited()
    }
}

struct Bucket {
    tokens: f64,
    refilled: Instant,
}

/// The quota ledger: one token bucket per tenant seen so far.
pub struct TenantQuotas {
    config: QuotaConfig,
    buckets: Mutex<HashMap<String, Bucket>>,
}

/// Why an admission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RateExceeded {
    /// Whole seconds (≥ 1) until a token is expected — the
    /// `Retry-After` value.
    pub retry_after_secs: u64,
}

impl TenantQuotas {
    /// A ledger enforcing `config`.
    pub fn new(config: QuotaConfig) -> Self {
        Self {
            config,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// The limits in force.
    pub fn config(&self) -> &QuotaConfig {
        &self.config
    }

    /// Takes one solve token for `tenant`, or reports how long until
    /// one is available. Infinite-rate configs admit without touching
    /// the ledger.
    pub fn admit_solve(&self, tenant: &str) -> Result<(), RateExceeded> {
        if self.config.solve_rate.is_infinite() && self.config.solve_burst.is_infinite() {
            return Ok(());
        }
        let now = Instant::now();
        let mut buckets = self.buckets.lock().unwrap();
        let burst = if self.config.solve_burst.is_finite() {
            self.config.solve_burst.max(1.0)
        } else {
            f64::MAX
        };
        let bucket = buckets.entry(tenant.to_string()).or_insert(Bucket {
            tokens: burst,
            refilled: now,
        });
        let elapsed = now.saturating_duration_since(bucket.refilled).as_secs_f64();
        bucket.refilled = now;
        if self.config.solve_rate.is_finite() {
            bucket.tokens = (bucket.tokens + elapsed * self.config.solve_rate).min(burst);
        }
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            return Ok(());
        }
        let deficit = 1.0 - bucket.tokens;
        let wait = if self.config.solve_rate > 0.0 && self.config.solve_rate.is_finite() {
            (deficit / self.config.solve_rate).ceil().max(1.0)
        } else {
            1.0
        };
        Err(RateExceeded {
            retry_after_secs: wait as u64,
        })
    }

    /// Tenants currently tracked in the ledger (diagnostics).
    pub fn tracked_tenants(&self) -> usize {
        self.buckets.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_config_admits_everything() {
        let quotas = TenantQuotas::new(QuotaConfig::unlimited());
        assert!(!quotas.config().is_limiting());
        for _ in 0..10_000 {
            quotas.admit_solve("t").unwrap();
        }
        // The no-op fast path never materializes buckets.
        assert_eq!(quotas.tracked_tenants(), 0);
    }

    #[test]
    fn burst_empties_then_429s_with_retry_after() {
        let quotas = TenantQuotas::new(QuotaConfig {
            solve_rate: 0.5,
            solve_burst: 3.0,
            ..QuotaConfig::unlimited()
        });
        for _ in 0..3 {
            quotas.admit_solve("alice").unwrap();
        }
        let refusal = quotas.admit_solve("alice").unwrap_err();
        // One token at 0.5/s is ~2s away.
        assert!(refusal.retry_after_secs >= 1 && refusal.retry_after_secs <= 3);
        // Another tenant's bucket is untouched.
        quotas.admit_solve("bob").unwrap();
    }

    #[test]
    fn bucket_refills_over_time() {
        let quotas = TenantQuotas::new(QuotaConfig {
            solve_rate: 50.0,
            solve_burst: 1.0,
            ..QuotaConfig::unlimited()
        });
        quotas.admit_solve("t").unwrap();
        assert!(quotas.admit_solve("t").is_err());
        std::thread::sleep(std::time::Duration::from_millis(60));
        quotas.admit_solve("t").unwrap();
    }
}
