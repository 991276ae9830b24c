//! Consistent-hash ring: which shard owns a target.
//!
//! The ring is the cluster's only routing authority. Each shard
//! contributes `vnodes` points hashed onto a `u64` circle; a target
//! routes to the shard owning the first point at or after the target's
//! own hash. Virtual nodes smooth the per-shard load (with one point per
//! shard, removing a shard can double its successor's share; with ~64
//! points the spill spreads across everyone), and hashing keeps the
//! assignment *stable*: adding or removing one shard moves only the
//! targets whose arc it owned, never reshuffles the rest — which is what
//! makes failover cheap, because only the dead shard's targets re-route.
//!
//! The ring itself is immutable after construction; liveness is the
//! cluster's concern. Routing around dead shards walks the ring past
//! them ([`HashRing::successors`]), so the failover order of every
//! target is deterministic and known in advance.

/// FNV-1a over `bytes` — the same hash family the persist checksum
/// uses; endian-stable and dependency-free.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Finalizing mixer (splitmix64's). FNV-1a alone leaves the high bits of
/// short, similar keys correlated — and ring position is decided by the
/// *most* significant bits, so without this round a shard's arcs can
/// collapse to nothing and it owns no targets at all.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The ring's point hash: FNV-1a, then mixed.
fn point(bytes: &[u8]) -> u64 {
    mix(fnv1a(bytes))
}

/// An immutable consistent-hash ring over `shards` shards.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard)` pairs sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// A ring with `vnodes` points per shard (`vnodes == 0` is rounded
    /// up to 1).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` — an empty ring routes nothing.
    #[must_use]
    pub fn new(shards: usize, vnodes: usize) -> Self {
        assert!(shards > 0, "a cluster needs at least one shard");
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for v in 0..vnodes {
                let key = format!("shard-{shard}#{v}");
                points.push((point(key.as_bytes()), shard));
            }
        }
        // Ties (astronomically unlikely) resolve to the lower shard
        // index, deterministically.
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// Number of shards on the ring.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `target`: the first ring point at or after the
    /// target's hash, wrapping at the top of the circle.
    #[must_use]
    pub fn route(&self, target: &str) -> usize {
        self.successors(target)
            .next()
            .expect("ring has at least one shard")
    }

    /// Every shard in the deterministic failover order of `target`: the
    /// owner first, then each *distinct* shard encountered walking the
    /// ring clockwise. Yields each shard exactly once.
    pub fn successors<'a>(&'a self, target: &str) -> impl Iterator<Item = usize> + 'a {
        let hash = point(target.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < hash);
        let mut seen = vec![false; self.shards];
        let n = self.points.len();
        (0..n).filter_map(move |i| {
            let (_, shard) = self.points[(start + i) % n];
            if seen[shard] {
                None
            } else {
                seen[shard] = true;
                Some(shard)
            }
        })
    }

    /// The first shard in `target`'s failover order for which `alive`
    /// holds, or `None` when every shard is down.
    pub fn route_alive<F: Fn(usize) -> bool>(&self, target: &str, alive: F) -> Option<usize> {
        self.successors(target).find(|&s| alive(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let ring = HashRing::new(3, 64);
        for t in ["x64", "riscv", "stack", "a", "b", "c"] {
            let s = ring.route(t);
            assert!(s < 3);
            assert_eq!(s, ring.route(t), "route must be stable");
        }
    }

    #[test]
    fn successors_enumerate_every_shard_once() {
        let ring = HashRing::new(5, 16);
        let order: Vec<usize> = ring.successors("target").collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn failover_skips_dead_shards_deterministically() {
        let ring = HashRing::new(3, 64);
        let owner = ring.route("t");
        let next = ring.route_alive("t", |s| s != owner).unwrap();
        assert_ne!(next, owner);
        // Killing the owner must not move targets owned by other shards.
        for t in ["u", "v", "w", "x", "y"] {
            let o = ring.route(t);
            if o != owner {
                assert_eq!(ring.route_alive(t, |s| s != owner), Some(o));
            }
        }
        assert_eq!(ring.route_alive("t", |_| false), None);
    }

    #[test]
    fn virtual_nodes_spread_load() {
        let ring = HashRing::new(4, 64);
        let mut counts = [0usize; 4];
        for i in 0..1000 {
            counts[ring.route(&format!("target-{i}"))] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(c > 50, "shard {shard} owns only {c}/1000 targets");
        }
    }
}
