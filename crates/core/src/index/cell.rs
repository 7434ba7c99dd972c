//! Cell grid index over the copy dimension and the selective other
//! dimensions.
//!
//! The grid sizes itself from its own population. Its axes are the copy
//! dimension, then the other dimensions in order of selectivity (mean
//! predicate width, clamped to the domain, over the domain's length); a
//! dimension whose mean width is at least half its domain is skipped.
//! Each axis cuts the live predicates' extent into cells about one mean
//! width wide, and its edge cells are open-ended, so a value outside the
//! extent lands in an edge cell: the extent only guides speed, never
//! correctness. An axis is dropped when it would leave more than
//! [`LINKS_PER_ROW`] links per live row plus one per cell, or more cells
//! than live rows, so a few wildcard rows (linked into every cell) cannot
//! blow the grid up.
//!
//! A subscription is linked into every cell its box meets, and a point
//! query reads exactly one cell and verifies each of its rows with
//! `Rows::matches`. The grid is rebuilt from the slab whenever the live
//! population leaves `[½, 2] ×` the population at the last build, so a
//! rebuild costs amortised O(1) per write, and growth, churn and the mass
//! retire after a hand-over all resize it; it is also rebuilt when writes
//! since the build doubled the links it planned for. No link allocates
//! on its own: a cell is one `u32` vector, allocated at its exact size by
//! each rebuild and grown by doubling between rebuilds.

use super::{MatchHit, MatchIndex, Rows, Slab};
use crate::ids::{DimIdx, SubscriptionId};
use crate::message::Message;
use crate::space::AttributeSpace;
use crate::subscription::{Range, Subscription};

/// Most axes a grid has: the copy dimension and up to three others.
const MAX_AXES: usize = 4;

/// Links a grid is planned to hold per live row, on top of one per cell.
/// Writes between builds may double that before a rebuild re-plans.
const LINKS_PER_ROW: usize = 8;

/// One grid axis: a dimension cut at ascending interior boundaries. Cell
/// `c` holds `[cuts[c - 1], cuts[c])`; the first and last cells are
/// open-ended.
#[derive(Debug)]
struct Axis {
    dim: DimIdx,
    cuts: Vec<f64>,
    /// Flat-index step of one cell along this axis.
    stride: usize,
}

impl Axis {
    fn cells(&self) -> usize {
        self.cuts.len() + 1
    }

    /// The cell holding `v`: the number of boundaries at or below it.
    #[inline]
    fn cell_of(&self, v: f64) -> usize {
        self.cuts.partition_point(|&b| b <= v)
    }

    /// The inclusive cells `[lo, hi)` meets, or `None` when it is empty.
    fn span(&self, r: Range) -> Option<(usize, usize)> {
        (r.lo < r.hi).then(|| (self.cell_of(r.lo), self.cell_of(r.hi.next_down())))
    }

    /// Number of cells `[lo, hi)` meets.
    fn met(&self, r: Range) -> usize {
        self.span(r).map_or(0, |(lo, hi)| hi - lo + 1)
    }

    /// The box of cell `c` along this axis.
    fn cell_range(&self, c: usize) -> Range {
        let lo = c.checked_sub(1).map_or(f64::NEG_INFINITY, |p| self.cuts[p]);
        Range::new(lo, self.cuts.get(c).copied().unwrap_or(f64::INFINITY))
    }
}

/// Calls `f` with the flat index of every cell the box `range` gives on
/// `axes` meets; nothing for a box empty on an axis.
fn cells_met(axes: &[Axis], range: impl Fn(DimIdx) -> Range, mut f: impl FnMut(usize)) {
    let mut span = [(0, 0); MAX_AXES];
    for (s, a) in span.iter_mut().zip(axes) {
        match a.span(range(a.dim)) {
            Some(cells) => *s = cells,
            None => return,
        }
    }
    let span = &span[..axes.len()];
    let mut at = [0; MAX_AXES];
    for (c, s) in at.iter_mut().zip(span) {
        *c = s.0;
    }
    loop {
        f(axes.iter().zip(&at).map(|(a, &c)| c * a.stride).sum());
        // Advance the first axis that has cells left, resetting the ones
        // before it.
        let mut i = 0;
        loop {
            if i == span.len() {
                return;
            }
            if at[i] < span[i].1 {
                at[i] += 1;
                break;
            }
            at[i] = span[i].0;
            i += 1;
        }
    }
}

/// Drops `slot`, whose box is `range`, from every cell of `axes` it
/// meets, and returns how many links went. A cell lists a slot at most
/// once, and removing it in place keeps the cell's order (and so the hit
/// order).
fn unlink(
    cells: &mut [Vec<u32>],
    axes: &[Axis],
    slot: usize,
    range: impl Fn(DimIdx) -> Range,
) -> usize {
    let (link, mut gone) = (slot as u32, 0);
    cells_met(axes, range, |c| {
        let cell = &mut cells[c];
        if let Some(pos) = cell.iter().position(|&s| s == link) {
            cell.remove(pos);
            gone += 1;
        }
    });
    gone
}

/// Self-sizing cell grid over the copy dimension and the selective other
/// dimensions.
#[derive(Debug)]
pub struct CellIndex {
    dim: DimIdx,
    /// Every dimension's domain, which clamps predicates when sizing.
    domain: Vec<Range>,
    slab: Slab,
    /// The copy dimension first, then the kept other dimensions.
    axes: Vec<Axis>,
    /// `cells[c]` = slots whose box meets cell `c`, by flat index.
    cells: Vec<Vec<u32>>,
    /// Total links over all cells.
    links: usize,
    /// Live population at the last build.
    built: usize,
}

impl CellIndex {
    /// Creates an empty grid for copies along `dim`. It sizes itself from
    /// its population as subscriptions arrive.
    pub fn new(space: &AttributeSpace, dim: DimIdx) -> Self {
        CellIndex {
            dim,
            domain: space
                .iter()
                .map(|(_, d)| Range::new(d.min, d.max))
                .collect(),
            slab: Slab::with_k(space.k()),
            axes: Vec::new(),
            cells: vec![Vec::new()],
            links: 0,
            built: 0,
        }
    }

    /// The box of the cell a probe at `values` reads, one range per
    /// dimension of the space (unbounded off the grid's axes).
    #[doc(hidden)]
    pub fn probe_cell(&self, values: &[f64]) -> Vec<Range> {
        let mut cell: Vec<Range> = self
            .domain
            .iter()
            .map(|_| Range::new(f64::NEG_INFINITY, f64::INFINITY))
            .collect();
        for a in &self.axes {
            cell[a.dim.index()] = a.cell_range(a.cell_of(values[a.dim.index()]));
        }
        cell
    }

    fn link(&mut self, slot: usize) {
        let rows = self.slab.rows();
        let link = u32::try_from(slot).expect("slot fits a cell link");
        cells_met(
            &self.axes,
            |d| rows.range(slot, d),
            |c| {
                self.cells[c].push(link);
                self.links += 1;
            },
        );
    }

    /// Whether the population left `[½, 2] ×` its size at the last build,
    /// or writes since doubled the links the build planned for.
    fn stale(&self) -> bool {
        let live = self.slab.len();
        let planned = LINKS_PER_ROW * live + self.cells.len();
        live > 2 * self.built || 2 * live < self.built || self.links > 2 * planned
    }

    /// Re-sizes the grid to the live population and relinks every row.
    fn rebuild(&mut self) {
        let live = self.slab.live_slots();
        self.built = live.len();
        self.axes = plan_axes(self.slab.rows(), &live, &self.domain, self.dim);
        let rows = self.slab.rows();
        let cells = self.axes.iter().map(Axis::cells).product();
        // Count first, so every cell is allocated once at its exact size.
        let mut counts = vec![0usize; cells];
        for &slot in &live {
            cells_met(&self.axes, |d| rows.range(slot, d), |c| counts[c] += 1);
        }
        self.cells = counts.into_iter().map(Vec::with_capacity).collect();
        self.links = 0;
        for &slot in &live {
            self.link(slot);
        }
    }
}

/// Chooses the axes for the rows at `live`: the copy dimension `dim`,
/// then the others by ascending mean clamped width over domain length,
/// skipping any at least half as wide as its domain. Each axis cuts its
/// extent into cells about one mean width wide, while the grid has at
/// most one cell per row and at most [`LINKS_PER_ROW`] links per row
/// plus one per cell; an axis that would break either bound, or get
/// fewer than two cells, is dropped.
fn plan_axes(rows: &Rows, live: &[usize], domain: &[Range], dim: DimIdx) -> Vec<Axis> {
    // Per dimension: the extent of the clamped predicates and their
    // summed width.
    let stats: Vec<(Range, f64)> = (0..domain.len())
        .map(|d| {
            let dom = domain[d];
            let mut extent = Range::new(dom.hi, dom.lo);
            let mut width = 0.0;
            for &slot in live {
                let r = rows.range(slot, DimIdx(d as u16));
                let (lo, hi) = (r.lo.max(dom.lo), r.hi.min(dom.hi));
                if lo < hi {
                    extent = Range::new(extent.lo.min(lo), extent.hi.max(hi));
                    width += hi - lo;
                }
            }
            (extent, width / live.len().max(1) as f64)
        })
        .collect();
    let selectivity = |d: usize| stats[d].1 / domain[d].width();
    let mut others: Vec<usize> = (0..domain.len())
        .filter(|&d| d != dim.index() && selectivity(d) < 0.5)
        .collect();
    others.sort_by(|&a, &b| selectivity(a).total_cmp(&selectivity(b)));

    let max_cells = live.len().max(1);
    let mut axes: Vec<Axis> = Vec::with_capacity(MAX_AXES);
    let mut cells = 1;
    // Cells each row meets on the axes kept so far, and with a candidate.
    let mut met = vec![1; live.len()];
    let mut with = vec![0; live.len()];
    for d in std::iter::once(dim.index()).chain(others) {
        if axes.len() == MAX_AXES {
            break;
        }
        let (extent, mean) = stats[d];
        let wanted = (extent.width() / mean).round();
        let n = if wanted.is_finite() {
            wanted as usize
        } else {
            1
        };
        let n = n.min(max_cells / cells);
        if n < 2 {
            continue;
        }
        let step = extent.width() / n as f64;
        let axis = Axis {
            dim: DimIdx(d as u16),
            cuts: (1..n).map(|i| extent.lo + step * i as f64).collect(),
            stride: cells,
        };
        for ((w, &m), &slot) in with.iter_mut().zip(&met).zip(live) {
            *w = m * axis.met(rows.range(slot, axis.dim));
        }
        if with.iter().sum::<usize>() <= LINKS_PER_ROW * live.len() + cells * n {
            std::mem::swap(&mut met, &mut with);
            axes.push(axis);
            cells *= n;
        }
    }
    axes
}

impl MatchIndex for CellIndex {
    fn dim(&self) -> DimIdx {
        self.dim
    }

    fn insert(&mut self, sub: Subscription) {
        // Re-registration keeps the slot: unlink its previous box first.
        if let Some(slot) = self.slab.slot(sub.id) {
            let rows = self.slab.rows();
            self.links -= unlink(&mut self.cells, &self.axes, slot, |d| rows.range(slot, d));
        }
        let slot = self.slab.insert(&sub);
        self.link(slot);
        if self.stale() {
            self.rebuild();
        }
    }

    fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        let (slot, sub) = self.slab.remove(id)?;
        self.links -= unlink(&mut self.cells, &self.axes, slot, |d| sub.predicate(d));
        if self.stale() {
            self.rebuild();
        }
        Some(sub)
    }

    fn matching(&mut self, msg: &Message, out: &mut Vec<MatchHit>) -> usize {
        // A cell lists live slots only, so its population is the examined
        // count. Meeting a cell does not imply containing the point, so
        // the full row is verified; the hit is loaded only on a match.
        let at: usize = self
            .axes
            .iter()
            .map(|a| a.cell_of(msg.value(a.dim)) * a.stride)
            .sum();
        let cell = &self.cells[at];
        let rows = self.slab.rows();
        for &slot in cell {
            if rows.matches(slot as usize, &msg.values) {
                out.push(rows.hit(slot as usize));
            }
        }
        cell.len()
    }

    fn logical_len(&self) -> usize {
        self.slab.len()
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let axes: usize = self
            .axes
            .iter()
            .map(|a| size_of::<Axis>() + a.cuts.capacity() * size_of::<f64>())
            .sum();
        let cells = self.cells.capacity() * size_of::<Vec<u32>>();
        let links: usize = self
            .cells
            .iter()
            .map(|c| c.capacity() * size_of::<u32>())
            .sum();
        size_of::<Self>() + self.slab.memory_bytes() + axes + cells + links
    }

    fn extract_overlapping(&mut self, range: &Range) -> Vec<Subscription> {
        self.slab
            .overlapping(self.dim, range)
            .into_iter()
            .filter_map(|id| self.remove(id))
            .collect()
    }

    fn snapshot(&self) -> Vec<Subscription> {
        self.slab.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::test_support::{check_index_contract, sub};

    fn space(k: usize) -> AttributeSpace {
        AttributeSpace::uniform(k, 0.0, 1000.0)
    }

    /// `n` rows spread over the domain, `width` wide on dims 0 and 1 and
    /// `wide` wide on any further dimension.
    fn spread(sp: &AttributeSpace, n: u64, width: f64, wide: f64) -> Vec<Subscription> {
        (0..n)
            .map(|i| {
                let ranges: Vec<(usize, f64, f64)> = (0..sp.k())
                    .map(|d| {
                        let w = if d < 2 { width } else { wide };
                        let lo = ((i * 7919 + d as u64 * 104_729) % 997) as f64 / 997.0;
                        let lo = lo * (1000.0 - w);
                        (d, lo, lo + w)
                    })
                    .collect();
                sub(sp, i + 1, &ranges)
            })
            .collect()
    }

    fn links(idx: &CellIndex) -> usize {
        idx.cells.iter().map(Vec::len).sum()
    }

    /// Live rows whose box meets the cell a probe at `values` reads.
    fn cell_population(idx: &CellIndex, values: &[f64]) -> usize {
        let cell = idx.probe_cell(values);
        idx.snapshot()
            .iter()
            .filter(|s| s.predicates.iter().zip(&cell).all(|(p, c)| p.overlaps(c)))
            .count()
    }

    #[test]
    fn satisfies_index_contract_on_every_dimension() {
        for d in 0..2 {
            check_index_contract(Box::new(CellIndex::new(&space(2), DimIdx(d))), &space(2));
        }
    }

    #[test]
    fn axes_are_the_copy_dimension_then_the_selective_ones() {
        let sp = space(3);
        let mut idx = CellIndex::new(&sp, DimIdx(1));
        for s in spread(&sp, 2_000, 40.0, 800.0) {
            idx.insert(s);
        }
        let dims: Vec<DimIdx> = idx.axes.iter().map(|a| a.dim).collect();
        assert_eq!(dims, [DimIdx(1), DimIdx(0)], "dim 2 is too wide to cut");
        // Cells about one mean width wide over the extent.
        for a in &idx.axes {
            assert!((20..=30).contains(&a.cells()), "{} cells", a.cells());
        }
        let cell = idx.probe_cell(&[500.0, 500.0, 500.0]);
        assert!(cell[0].width() < 50.0 && cell[1].width() < 50.0);
        assert_eq!(cell[2].width(), f64::INFINITY);
    }

    #[test]
    fn a_probe_examines_one_small_cell() {
        let sp = space(2);
        let mut idx = CellIndex::new(&sp, DimIdx(0));
        for s in spread(&sp, 4_000, 20.0, 20.0) {
            idx.insert(s);
        }
        let mut total = 0;
        for i in 0..200 {
            let p = [(i * 37 % 1000) as f64 + 0.5, (i * 61 % 1000) as f64 + 0.5];
            let mut out = Vec::new();
            let examined = idx.matching(&Message::new(p.to_vec()), &mut out);
            assert_eq!(examined, cell_population(&idx, &p));
            total += examined;
        }
        // A 1-D grid would examine about 4 000 · 40 / 1 000 = 160.
        assert!(total / 200 <= 20, "mean examined {}", total / 200);
    }

    #[test]
    fn wildcard_rows_keep_links_bounded() {
        let sp = space(4);
        let mut idx = CellIndex::new(&sp, DimIdx(0));
        for s in spread(&sp, 3_000, 10.0, 10.0) {
            idx.insert(s);
        }
        for i in 0..600 {
            idx.insert(sub(&sp, 10_000 + i, &[]));
        }
        let live = idx.logical_len();
        assert_eq!(links(&idx), idx.links);
        assert!(idx.links <= 2 * (LINKS_PER_ROW * live + idx.cells.len()));
        // A build plans for at most half that.
        idx.rebuild();
        assert!(idx.links <= LINKS_PER_ROW * live + idx.cells.len());
        assert!(idx.cells.len() <= live);
        let mut out = Vec::new();
        idx.matching(&Message::new(vec![1.0; 4]), &mut out);
        assert!(out.len() >= 600, "every wildcard row matches");
    }

    #[test]
    fn the_grid_follows_the_population_both_ways() {
        let sp = space(2);
        let mut idx = CellIndex::new(&sp, DimIdx(0));
        let subs = spread(&sp, 3_000, 15.0, 15.0);
        for s in &subs {
            idx.insert(s.clone());
        }
        let grown = idx.cells.len();
        for s in &subs[..2_900] {
            idx.remove(s.id).unwrap();
        }
        assert!(idx.built <= 200, "a mass removal rebuilds");
        assert!(idx.cells.len() < grown);
        let mut met = 0;
        for &slot in &idx.slab.live_slots() {
            cells_met(&idx.axes, |d| idx.slab.rows().range(slot, d), |_| met += 1);
        }
        assert_eq!(links(&idx), met);
        for s in &subs[2_900..] {
            let p: Vec<f64> = s.predicates.iter().map(|r| r.lo).collect();
            let mut out = Vec::new();
            idx.matching(&Message::new(p), &mut out);
            assert!(out.iter().any(|h| h.0 == s.id));
        }
    }

    #[test]
    fn hi_is_exclusive_at_a_cut() {
        let sp = space(2);
        let mut idx = CellIndex::new(&sp, DimIdx(0));
        for s in spread(&sp, 1_000, 50.0, 50.0) {
            idx.insert(s);
        }
        let cut = idx.axes[0].cuts[3];
        idx.insert(sub(&sp, 5_000, &[(0, cut - 10.0, cut), (1, 0.0, 1000.0)]));
        let mut out = Vec::new();
        idx.matching(&Message::new(vec![cut, 500.0]), &mut out);
        assert!(out.iter().all(|h| h.0 != SubscriptionId(5_000)));
        let examined = idx.matching(&Message::new(vec![cut, 500.0]), &mut out);
        assert_eq!(examined, cell_population(&idx, &[cut, 500.0]));
        out.clear();
        idx.matching(&Message::new(vec![cut.next_down(), 500.0]), &mut out);
        assert!(out.iter().any(|h| h.0 == SubscriptionId(5_000)));
    }

    #[test]
    fn values_off_the_extent_read_the_edge_cells() {
        let sp = space(2);
        let mut idx = CellIndex::new(&sp, DimIdx(0));
        for i in 0..200 {
            let lo = 400.0 + i as f64;
            idx.insert(sub(&sp, i, &[(0, lo, lo + 5.0), (1, lo, lo + 5.0)]));
        }
        // Inserted after the build, outside the extent it was cut over.
        idx.insert(sub(&sp, 999, &[(0, 0.0, 10.0), (1, 990.0, 1000.0)]));
        let mut out = Vec::new();
        idx.matching(&Message::new(vec![5.0, 995.0]), &mut out);
        assert_eq!(
            out,
            vec![(SubscriptionId(999), crate::ids::SubscriberId(999))]
        );
    }

    #[test]
    fn reregistration_and_removal_unlink_every_cell() {
        let sp = space(2);
        let mut idx = CellIndex::new(&sp, DimIdx(0));
        for s in spread(&sp, 500, 30.0, 30.0) {
            idx.insert(s);
        }
        let before = links(&idx);
        idx.insert(sub(&sp, 1, &[(0, 900.0, 905.0), (1, 900.0, 905.0)]));
        let mut out = Vec::new();
        for s in spread(&sp, 1, 30.0, 30.0) {
            let p: Vec<f64> = s.predicates.iter().map(|r| r.lo).collect();
            idx.matching(&Message::new(p), &mut out);
        }
        assert!(out.is_empty(), "the moved row left its old cells");
        idx.matching(&Message::new(vec![901.0, 901.0]), &mut out);
        assert_eq!(out.len(), 1);
        idx.remove(SubscriptionId(1)).unwrap();
        assert!(links(&idx) < before);
        out.clear();
        assert_eq!(idx.matching(&Message::new(vec![901.0, 901.0]), &mut out), {
            cell_population(&idx, &[901.0, 901.0])
        });
        assert!(out.is_empty());
    }
}
