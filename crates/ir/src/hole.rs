//! Holes, synthesis sites and candidate-space accounting.
//!
//! A *hole* is an integer unknown with a finite domain; a *site* is a
//! surface synthesis construct (one `??`, one generator, one `reorder`
//! block, one `repeat(??)`) that owns one or more holes. Sites carry
//! the provenance needed to (a) compute the candidate-space size |C|
//! reported in the paper's Table 1 and (b) map a solved [`Assignment`]
//! back onto the sketch for printing.

use psketch_lang::ast::Expr;
use psketch_lang::error::Span;
use std::fmt;

/// Identifier of a hole (index into the table).
pub type HoleId = u32;

/// Identifier of a synthesis site.
pub type SiteId = u32;

/// What kind of surface construct a site desugars.
#[derive(Clone, Debug, PartialEq)]
pub enum SiteKind {
    /// A primitive `??(width)` constant hole.
    Const {
        /// Bit width of the constant.
        width: u32,
    },
    /// An expression generator; `alts` are the well-typed alternatives
    /// in enumeration order (each may itself contain nested sites).
    GenChoice {
        /// Parsed alternatives (for resolution printing).
        alts: Vec<Expr>,
        /// True when used on the left of `=` (alternatives are l-values).
        lvalue: bool,
    },
    /// A `reorder` block of `k` statements, quadratic encoding:
    /// `k` holes of domain `k` plus a pairwise-distinct constraint.
    ReorderQuad {
        /// Number of statements.
        k: usize,
    },
    /// A `reorder` block of `k` statements, insertion encoding: hole
    /// `i` (for `i` in `1..k`) has domain `i+1` and gives the insertion
    /// position of statement `i` into the already-ordered prefix.
    ReorderExp {
        /// Number of statements.
        k: usize,
    },
    /// A `repeat (??)` replication count in `0..=max`.
    RepeatCount {
        /// Maximum replication.
        max: u64,
    },
}

/// A synthesis site with its holes.
#[derive(Clone, Debug)]
pub struct Site {
    /// What the site desugars.
    pub kind: SiteKind,
    /// Source location of the construct.
    pub span: Span,
    /// The holes allocated for this site, in order.
    pub holes: Vec<HoleId>,
    /// True when this site is nested inside a generator alternative:
    /// its count is folded into the enclosing `GenChoice`'s
    /// `count_override` (a `??` in an unchosen alternative does not
    /// multiply the space of distinct programs).
    pub absorbed: bool,
    /// Explicit candidate count (used by `GenChoice` sites with
    /// hole-bearing alternatives: Σ over alternatives of the product
    /// of their nested sites' counts).
    pub count_override: Option<u128>,
}

impl Site {
    /// Number of syntactically distinct candidates this site
    /// contributes (the factor it multiplies into |C|).
    pub fn candidate_count(&self) -> u128 {
        if self.absorbed {
            return 1;
        }
        if let Some(c) = self.count_override {
            return c;
        }
        match &self.kind {
            SiteKind::Const { width } => 1u128 << width.min(&127).to_owned(),
            SiteKind::GenChoice { alts, .. } => alts.len() as u128,
            SiteKind::ReorderQuad { k } | SiteKind::ReorderExp { k } => factorial(*k),
            SiteKind::RepeatCount { max } => (*max as u128) + 1,
        }
    }
}

fn factorial(k: usize) -> u128 {
    (1..=k as u128).product::<u128>().max(1)
}

#[derive(Clone, Debug)]
struct HoleInfo {
    domain: u64,
    span: Span,
}

/// The table of all holes and sites in a desugared program.
#[derive(Clone, Debug, Default)]
pub struct HoleTable {
    holes: Vec<HoleInfo>,
    sites: Vec<Site>,
    /// Pure constraints over `Expr::HoleRef`s that every candidate must
    /// satisfy (e.g. reorder no-duplicates). These are *static*: they do
    /// not depend on program state.
    constraints: Vec<Expr>,
}

impl HoleTable {
    /// Creates an empty table.
    pub fn new() -> HoleTable {
        HoleTable::default()
    }

    /// Registers a new site and returns its id.
    pub fn new_site(&mut self, kind: SiteKind, span: Span) -> SiteId {
        self.sites.push(Site {
            kind,
            span,
            holes: Vec::new(),
            absorbed: false,
            count_override: None,
        });
        (self.sites.len() - 1) as SiteId
    }

    /// Marks sites `from..to` as absorbed into an enclosing generator
    /// site and returns the product of their candidate counts.
    pub fn absorb_sites(&mut self, from: SiteId, to: SiteId) -> u128 {
        let mut product = 1u128;
        for ix in from..to {
            let site = &mut self.sites[ix as usize];
            if !site.absorbed {
                product = product.saturating_mul(
                    // Re-borrow immutably for the count.
                    Site {
                        absorbed: false,
                        ..site.clone()
                    }
                    .candidate_count(),
                );
                site.absorbed = true;
            }
        }
        product
    }

    /// Sets an explicit candidate count on a site.
    pub fn set_count_override(&mut self, site: SiteId, count: u128) {
        self.sites[site as usize].count_override = Some(count);
    }

    /// Allocates a hole with `domain` possible values for `site`.
    ///
    /// # Panics
    ///
    /// Panics if `domain == 0` or the site id is unknown.
    pub fn new_hole(&mut self, site: SiteId, domain: u64, span: Span) -> HoleId {
        assert!(domain > 0, "hole domain must be non-empty");
        let id = self.holes.len() as HoleId;
        self.holes.push(HoleInfo { domain, span });
        self.sites[site as usize].holes.push(id);
        id
    }

    /// Adds a static validity constraint over hole references.
    pub fn add_constraint(&mut self, c: Expr) {
        self.constraints.push(c);
    }

    /// The static validity constraints.
    pub fn constraints(&self) -> &[Expr] {
        &self.constraints
    }

    /// Number of holes.
    pub fn num_holes(&self) -> usize {
        self.holes.len()
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Domain size of a hole.
    pub fn domain(&self, h: HoleId) -> u64 {
        self.holes[h as usize].domain
    }

    /// Declaration span of a hole.
    pub fn span(&self, h: HoleId) -> Span {
        self.holes[h as usize].span
    }

    /// All sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// |C|: the number of syntactically distinct candidate programs,
    /// saturating at `u128::MAX`.
    pub fn candidate_space(&self) -> u128 {
        self.sites
            .iter()
            .map(Site::candidate_count)
            .fold(1u128, |a, b| a.saturating_mul(b))
    }

    /// log10 |C| (for the paper's Figure 10 axis).
    pub fn log10_candidate_space(&self) -> f64 {
        self.sites
            .iter()
            .map(|s| (s.candidate_count() as f64).log10())
            .sum()
    }

    /// An assignment that satisfies all per-site structural
    /// constraints (identity permutations, zero constants).
    pub fn identity_assignment(&self) -> Assignment {
        let mut values = vec![0u64; self.holes.len()];
        for site in &self.sites {
            if let SiteKind::ReorderQuad { .. } = site.kind {
                for (i, &h) in site.holes.iter().enumerate() {
                    values[h as usize] = i as u64;
                }
            }
        }
        Assignment { values }
    }
}

/// A full assignment of values to holes: one candidate program.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct Assignment {
    values: Vec<u64>,
}

impl Assignment {
    /// Builds an assignment from per-hole values.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a value exceeds its hole's domain
    /// when checked against a table via [`Assignment::validate`].
    pub fn from_values(values: Vec<u64>) -> Assignment {
        Assignment { values }
    }

    /// The value of hole `h`.
    pub fn value(&self, h: HoleId) -> u64 {
        self.values[h as usize]
    }

    /// All values in hole order.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Checks domains against a table.
    pub fn validate(&self, table: &HoleTable) -> bool {
        self.values.len() == table.num_holes()
            && self
                .values
                .iter()
                .enumerate()
                .all(|(i, &v)| v < table.domain(i as HoleId))
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "h{i}={v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_space_multiplies_site_counts() {
        let mut t = HoleTable::new();
        let s1 = t.new_site(SiteKind::Const { width: 3 }, Span::default());
        t.new_hole(s1, 8, Span::default());
        let s2 = t.new_site(SiteKind::ReorderQuad { k: 4 }, Span::default());
        for _ in 0..4 {
            t.new_hole(s2, 4, Span::default());
        }
        let s3 = t.new_site(
            SiteKind::GenChoice {
                alts: vec![
                    Expr::Int(0, Span::default()),
                    Expr::Int(1, Span::default()),
                    Expr::Int(2, Span::default()),
                ],
                lvalue: false,
            },
            Span::default(),
        );
        t.new_hole(s3, 3, Span::default());
        // 8 * 4! * 3 = 576.
        assert_eq!(t.candidate_space(), 576);
        assert!((t.log10_candidate_space() - (576f64).log10()).abs() < 1e-9);
    }

    #[test]
    fn identity_assignment_is_valid_permutation() {
        let mut t = HoleTable::new();
        let s = t.new_site(SiteKind::ReorderQuad { k: 3 }, Span::default());
        for _ in 0..3 {
            t.new_hole(s, 3, Span::default());
        }
        let a = t.identity_assignment();
        assert!(a.validate(&t));
        assert_eq!(a.values(), &[0, 1, 2]);
    }

    #[test]
    fn validate_rejects_out_of_domain() {
        let mut t = HoleTable::new();
        let s = t.new_site(SiteKind::Const { width: 1 }, Span::default());
        t.new_hole(s, 2, Span::default());
        assert!(Assignment::from_values(vec![1]).validate(&t));
        assert!(!Assignment::from_values(vec![2]).validate(&t));
        assert!(!Assignment::from_values(vec![]).validate(&t));
    }

    #[test]
    fn factorial_edge_cases() {
        assert_eq!(factorial(0), 1);
        assert_eq!(factorial(1), 1);
        assert_eq!(factorial(5), 120);
    }
}
