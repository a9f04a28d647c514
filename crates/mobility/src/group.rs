//! Reference-point group mobility (RPGM, Hong et al.).
//!
//! Nodes are partitioned into groups of `group_size` consecutive
//! indices; the first node of each group is its **leader** and follows
//! random-waypoint legs across the region. Every other node is
//! tethered to its leader: it keeps a persistent reference offset of
//! norm at most `tether/2` and adds a fresh jitter of norm at most
//! `tether/2` each step, so a member is **never** more than `tether`
//! away from its leader (the member-tether invariant; region clamping
//! can only shrink that distance, since the leader is inside).
//!
//! The model produces the clustered and partitioned connectivity
//! regimes the per-node models cannot: with `tether ≪ l` the network
//! is a set of internally dense clusters whose global connectivity is
//! governed entirely by leader-to-leader distances.

use crate::{validate_positive, Mobility, ModelError};
use manet_geom::{
    sampling::{sample_in_ball, sample_in_ball_batch},
    Point, Region,
};
use rand::{Rng, RngExt};

/// Leader leg state (random-waypoint kinematics).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Leg<const D: usize> {
    Paused { remaining: u32 },
    Moving { dest: Point<D>, speed: f64 },
}

/// Per-node group state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Role<const D: usize> {
    /// Group leader, moving by waypoint legs.
    Leader(Leg<D>),
    /// Member with a persistent reference offset from its leader.
    Member { offset: [f64; D] },
}

/// The reference-point group mobility model.
///
/// # Example
///
/// ```
/// use manet_geom::Region;
/// use manet_mobility::{Mobility, ReferencePointGroup};
/// use rand::SeedableRng;
///
/// let region: Region<2> = Region::new(100.0).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let mut positions = region.place_uniform(12, &mut rng);
///
/// // Groups of 4, members within 8.0 of their leader.
/// let mut model = ReferencePointGroup::new(4, 8.0, 0.5, 2.0, 10)?;
/// model.init(&positions, &region, &mut rng);
/// for _ in 0..50 {
///     model.step(&mut positions, &region, &mut rng);
/// }
/// assert!(positions.iter().all(|p| region.contains(p)));
/// // The member-tether invariant: node 1 stays within 8.0 of node 0.
/// assert!(positions[0].distance(&positions[1]) <= 8.0);
/// # Ok::<(), manet_mobility::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReferencePointGroup<const D: usize> {
    group_size: usize,
    tether: f64,
    v_min: f64,
    v_max: f64,
    pause_steps: u32,
    state: Vec<Role<D>>,
    /// One step's member jitters, one per member in node order (sized
    /// at `init`, overwritten every step).
    jitter: Vec<Point<D>>,
}

impl<const D: usize> ReferencePointGroup<D> {
    /// Creates the model: groups of `group_size` consecutive nodes,
    /// members within `tether` of their leader, leaders traveling
    /// waypoint legs at speeds in `[v_min, v_max]` with `pause_steps`
    /// pauses.
    ///
    /// # Errors
    ///
    /// * [`ModelError::NonPositive`] when `group_size == 0`, or when
    ///   `tether` or `v_min` is not strictly positive;
    /// * [`ModelError::EmptySpeedRange`] when `v_min > v_max`;
    /// * [`ModelError::NonFinite`] for NaN/infinite parameters.
    pub fn new(
        group_size: usize,
        tether: f64,
        v_min: f64,
        v_max: f64,
        pause_steps: u32,
    ) -> Result<Self, ModelError> {
        if group_size == 0 {
            return Err(ModelError::NonPositive {
                name: "group_size",
                value: 0.0,
            });
        }
        validate_positive("tether", tether)?;
        validate_positive("v_min", v_min)?;
        validate_positive("v_max", v_max)?;
        if v_min > v_max {
            return Err(ModelError::EmptySpeedRange { v_min, v_max });
        }
        Ok(ReferencePointGroup {
            group_size,
            tether,
            v_min,
            v_max,
            pause_steps,
            state: Vec::new(),
            jitter: Vec::new(),
        })
    }

    /// Paper-scale parameters for region side `l`: groups of 4 within
    /// a `0.05·l` tether, leaders at the §4.2 waypoint speeds
    /// (`v_min = 0.1`, `v_max = 0.01·l`) with `pause_steps` pauses.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] when `0.01·l < 0.1` (regions smaller
    /// than `l = 10` make the leader speed range empty).
    pub fn paper_defaults(side: f64, pause_steps: u32) -> Result<Self, ModelError> {
        ReferencePointGroup::new(4, 0.05 * side, 0.1, 0.01 * side, pause_steps)
    }

    /// Number of consecutive nodes per group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Maximum member-to-leader distance.
    pub fn tether(&self) -> f64 {
        self.tether
    }

    /// Minimum leader speed (distance per step).
    pub fn v_min(&self) -> f64 {
        self.v_min
    }

    /// Maximum leader speed (distance per step).
    pub fn v_max(&self) -> f64 {
        self.v_max
    }

    /// Leader pause duration in steps.
    pub fn pause_steps(&self) -> u32 {
        self.pause_steps
    }

    /// The group index of node `i`.
    pub fn group_of(&self, i: usize) -> usize {
        i / self.group_size
    }

    /// The leader node index for node `i` (`i` itself for leaders).
    pub fn leader_of(&self, i: usize) -> usize {
        self.group_of(i) * self.group_size
    }

    /// Whether node `i` is a group leader.
    pub fn is_leader(&self, i: usize) -> bool {
        i.is_multiple_of(self.group_size)
    }

    fn new_leg(&self, region: &Region<D>, rng: &mut dyn Rng) -> Leg<D> {
        let dest = region.sample_uniform(rng);
        let speed = if self.v_min == self.v_max {
            self.v_min
        } else {
            rng.random_range(self.v_min..=self.v_max)
        };
        Leg::Moving { dest, speed }
    }
}

impl<const D: usize> Mobility<D> for ReferencePointGroup<D> {
    fn init(&mut self, positions: &[Point<D>], region: &Region<D>, rng: &mut dyn Rng) {
        let origin = Point::new([0.0; D]);
        self.state = (0..positions.len())
            .map(|i| {
                if self.is_leader(i) {
                    Role::Leader(self.new_leg(region, rng))
                } else {
                    #[expect(
                        clippy::expect_used,
                        reason = "tether validated positive and finite at construction"
                    )]
                    let o = sample_in_ball(&origin, self.tether / 2.0, rng)
                        .expect("tether validated at construction");
                    Role::Member { offset: o.coords() }
                }
            })
            .collect();
        let members = positions.len() - positions.len().div_ceil(self.group_size);
        self.jitter = vec![Point::new([0.0; D]); members];
    }

    fn step(&mut self, positions: &mut [Point<D>], region: &Region<D>, rng: &mut dyn Rng) {
        assert_eq!(
            positions.len(),
            self.state.len(),
            "step called with a different node count than init"
        );
        let origin = Point::new([0.0; D]);
        let half_tether = self.tether / 2.0;
        let draw_jitters = |out: &mut [Point<D>], rng: &mut dyn Rng| {
            #[expect(
                clippy::expect_used,
                reason = "tether validated positive and finite at construction"
            )]
            sample_in_ball_batch(&origin, half_tether, out, rng)
                .expect("tether validated at construction");
        };
        // The draws, in the order a per-node pass makes them: a leader
        // whose pause ran out draws its next leg, and the member
        // jitters between two such leaders are drawn as one batch.
        // Group `g`'s leader comes after `g·(group_size − 1)` members.
        let mut drawn = 0;
        for (g, leader) in (0..positions.len()).step_by(self.group_size).enumerate() {
            if matches!(
                self.state[leader],
                Role::Leader(Leg::Paused { remaining: 0 })
            ) {
                let members_before = g * (self.group_size - 1);
                draw_jitters(&mut self.jitter[drawn..members_before], rng);
                drawn = members_before;
                self.state[leader] = Role::Leader(self.new_leg(region, rng));
            }
        }
        draw_jitters(&mut self.jitter[drawn..], rng);
        // Leaders precede their members in index order, so a single
        // pass sees every member's leader already advanced this step.
        let mut leader = 0;
        let mut member = 0;
        for i in 0..positions.len() {
            match self.state[i] {
                // The draw pass started a leg for every expired pause.
                Role::Leader(Leg::Paused { remaining }) => {
                    leader = i;
                    self.state[i] = Role::Leader(Leg::Paused {
                        remaining: remaining - 1,
                    });
                }
                Role::Leader(Leg::Moving { dest, speed }) => {
                    leader = i;
                    let (next, arrived) = positions[i].step_toward(&dest, speed);
                    positions[i] = next;
                    if arrived {
                        self.state[i] = Role::Leader(Leg::Paused {
                            remaining: self.pause_steps,
                        });
                    }
                }
                Role::Member { offset } => {
                    let leader = positions[leader];
                    let jitter = self.jitter[member];
                    member += 1;
                    let mut out = leader.coords();
                    for ((c, o), j) in out.iter_mut().zip(&offset).zip(&jitter.coords()) {
                        *c += o + j;
                    }
                    // |offset| + |jitter| <= tether, and clamping toward
                    // the (in-region) leader only shrinks the distance:
                    // the tether invariant survives the boundary.
                    positions[i] = region.clamp(&Point::new(out));
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "rpgm"
    }

    fn max_step_displacement(&self) -> Option<f64> {
        // Steady-state bound. A leader moves at most v_max (waypoint
        // leg). A member sits at clamp(leader + offset + jitter) with
        // the persistent offset unchanged across steps, so its
        // displacement is bounded by the leader's move plus the jitter
        // difference: |j_new - j_old| <= tether/2 + tether/2 = tether
        // (clamping is non-expansive). Exception: the *first* step
        // after `init` gathers uniformly-placed members onto their
        // leaders and can move them across the region — the step
        // kernel's contract check detects exactly that step and routes
        // it through its full-diff fallback (see
        // [`Mobility::max_step_displacement`]).
        Some(self.v_max + self.tether)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn region() -> Region<2> {
        Region::new(100.0).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(ReferencePointGroup::<2>::new(0, 5.0, 0.1, 1.0, 0).is_err());
        assert!(ReferencePointGroup::<2>::new(4, 0.0, 0.1, 1.0, 0).is_err());
        assert!(ReferencePointGroup::<2>::new(4, 5.0, 0.0, 1.0, 0).is_err());
        assert!(ReferencePointGroup::<2>::new(4, 5.0, 2.0, 1.0, 0).is_err());
        assert!(ReferencePointGroup::<2>::new(4, f64::NAN, 0.1, 1.0, 0).is_err());
        assert!(ReferencePointGroup::<2>::new(4, 5.0, 0.1, 1.0, 3).is_ok());
    }

    #[test]
    fn paper_defaults_scale_with_side() {
        let m = ReferencePointGroup::<2>::paper_defaults(1024.0, 200).unwrap();
        assert_eq!(m.group_size(), 4);
        assert!((m.tether() - 51.2).abs() < 1e-12);
        assert_eq!(m.v_min(), 0.1);
        assert!((m.v_max() - 10.24).abs() < 1e-12);
        assert_eq!(m.pause_steps(), 200);
        assert!(ReferencePointGroup::<2>::paper_defaults(5.0, 0).is_err());
    }

    #[test]
    fn group_topology_helpers() {
        let m = ReferencePointGroup::<2>::new(3, 5.0, 0.1, 1.0, 0).unwrap();
        assert!(m.is_leader(0) && m.is_leader(3) && !m.is_leader(4));
        assert_eq!(m.group_of(5), 1);
        assert_eq!(m.leader_of(5), 3);
        assert_eq!(m.leader_of(0), 0);
    }

    #[test]
    fn tether_invariant_holds_every_step() {
        let r = region();
        let mut g = rng(61);
        let mut pos = r.place_uniform(14, &mut g); // 4 groups, last partial
        let mut m = ReferencePointGroup::new(4, 9.0, 0.5, 4.0, 2).unwrap();
        m.init(&pos, &r, &mut g);
        for _ in 0..400 {
            m.step(&mut pos, &r, &mut g);
            assert!(pos.iter().all(|p| r.contains(p)));
            for i in 0..pos.len() {
                let d = pos[i].distance(&pos[m.leader_of(i)]);
                assert!(d <= 9.0 + 1e-9, "node {i} strayed {d} from its leader");
            }
        }
    }

    #[test]
    fn groups_cluster_below_tether_scale() {
        // After mixing, the average member-to-leader distance is far
        // below the region scale: the model really clusters.
        let r = region();
        let mut g = rng(62);
        let mut pos = r.place_uniform(16, &mut g);
        let mut m = ReferencePointGroup::new(4, 10.0, 0.5, 2.0, 0).unwrap();
        m.init(&pos, &r, &mut g);
        for _ in 0..100 {
            m.step(&mut pos, &r, &mut g);
        }
        let mut sum = 0.0;
        let mut count = 0;
        for i in 0..pos.len() {
            if !m.is_leader(i) {
                sum += pos[i].distance(&pos[m.leader_of(i)]);
                count += 1;
            }
        }
        let mean = sum / count as f64;
        assert!(mean <= 10.0, "mean member distance {mean}");
        assert!(mean > 0.0);
    }

    #[test]
    fn leaders_travel_the_region() {
        let r = region();
        let mut g = rng(63);
        let mut pos = vec![Point::new([50.0, 50.0]); 8];
        let start = pos.clone();
        let mut m = ReferencePointGroup::new(4, 5.0, 2.0, 5.0, 0).unwrap();
        m.init(&pos, &r, &mut g);
        for _ in 0..200 {
            m.step(&mut pos, &r, &mut g);
        }
        // Both leaders moved substantially.
        assert!(start[0].distance(&pos[0]) > 5.0);
        assert!(start[4].distance(&pos[4]) > 5.0);
    }

    #[test]
    fn group_size_one_is_all_leaders() {
        let r = region();
        let mut g = rng(64);
        let mut pos = r.place_uniform(6, &mut g);
        let mut m = ReferencePointGroup::new(1, 5.0, 0.5, 2.0, 0).unwrap();
        m.init(&pos, &r, &mut g);
        for i in 0..6 {
            assert!(m.is_leader(i));
        }
        for _ in 0..50 {
            m.step(&mut pos, &r, &mut g);
            assert!(pos.iter().all(|p| r.contains(p)));
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let r = region();
        let run = |seed| {
            let mut g = rng(seed);
            let mut pos = r.place_uniform(10, &mut g);
            let mut m = ReferencePointGroup::new(3, 7.0, 0.5, 3.0, 1).unwrap();
            m.init(&pos, &r, &mut g);
            for _ in 0..80 {
                m.step(&mut pos, &r, &mut g);
            }
            pos
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    #[should_panic(expected = "different node count")]
    fn step_with_wrong_count_panics() {
        let r = region();
        let mut g = rng(65);
        let pos = r.place_uniform(6, &mut g);
        let mut m = ReferencePointGroup::new(3, 5.0, 0.5, 2.0, 0).unwrap();
        m.init(&pos, &r, &mut g);
        let mut other = r.place_uniform(7, &mut g);
        m.step(&mut other, &r, &mut g);
    }

    #[test]
    fn name_is_stable() {
        let m = ReferencePointGroup::<2>::new(4, 5.0, 0.1, 1.0, 0).unwrap();
        assert_eq!(m.name(), "rpgm");
    }
}
