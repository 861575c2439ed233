//! Fill-reducing orderings and elimination-tree machinery for the SPD
//! Cholesky path.
//!
//! The entry point is `nested_dissection`: George–Liu automatic nested
//! dissection (BFS level-structure separators from a pseudo-peripheral
//! node) down to parts of a few thousand nodes, each of which is ordered
//! by [`amd`], an approximate-minimum-degree ordering in the style of
//! Amestoy, Davis and Duff (the quotient-graph formulation with element
//! absorption, supervariable merging and approximate external degrees).
//! A system small enough to be one such part gets exactly [`amd`]'s
//! permutation. The companion helpers — [`etree`], [`postorder`],
//! [`subtree_sizes`] — build the elimination-tree scaffolding the
//! symbolic and parallel numeric phases in [`crate::cholesky`] rest on.
//!
//! Everything here is deterministic: ties in the degree lists break by
//! insertion order, supervariable merges pick the smallest surviving
//! index, dissection roots and pseudo-peripheral candidates break ties
//! by index, and no iteration order depends on hashing or allocation
//! addresses. The parallel factorization's byte-identity guarantee
//! (DESIGN.md §8, §12) starts with this property.

/// Sentinel for "no node" in the u32 index arrays below.
const NONE: u32 = u32::MAX;

/// Computes an approximate-minimum-degree permutation for a symmetric
/// sparsity pattern given in CSC form (`col_ptr`/`row_idx`, diagonal
/// entries ignored). Returns `perm` with `perm[k]` = the original index
/// eliminated at step `k`.
///
/// The pattern must be structurally symmetric; the ordering is still a
/// valid permutation if it is not, but the fill prediction degrades.
pub fn amd(n: usize, col_ptr: &[usize], row_idx: &[u32]) -> Vec<u32> {
    amd_constrained(n, n, col_ptr, row_idx)
}

/// [`amd`] over the first `free` nodes of the pattern only: the nodes
/// `free..n` count toward their neighbors' degrees but are never
/// eliminated (they stand for separator nodes eliminated later), so
/// the returned permutation covers `0..free`.
fn amd_constrained(n: usize, free: usize, col_ptr: &[usize], row_idx: &[u32]) -> Vec<u32> {
    if free == 0 {
        return Vec::new();
    }
    let mut g = Quotient::new(n, free, col_ptr, row_idx);
    g.eliminate_all();
    g.into_perm()
}

/// Parts of at most this many nodes are ordered by [`amd`] instead of
/// being dissected further. Measured on 5-point grids (Σⱼ cⱼ² against
/// whole-graph AMD): at 4096 a 100×100 grid did 2–7% more work, at 6000
/// 0–9% less, while 200–500-edge grids saved 12–52%; any leaf above 4092
/// also keeps every grid of up to 64×64 nodes on pure AMD.
pub(crate) const ND_LEAF: usize = 6000;

/// Computes a nested-dissection permutation for a symmetric sparsity
/// pattern in CSC form (same contract as [`amd`]; `perm[k]` = the
/// original index eliminated at step `k`).
///
/// Each part of more than `leaf` nodes is laid out as `[A | B | S]`:
/// `S`, the middle level of a BFS level structure rooted at a
/// pseudo-peripheral node, thinned to the nodes that touch the far side,
/// separates `A` (the near levels) from `B` (the far ones), and is
/// eliminated last. A disconnected part splits into its components
/// without a separator. Smaller parts are ordered by [`amd`] on their
/// induced subgraph, with the separator nodes they touch held back as
/// never-eliminated neighbors, so an `n <= leaf` system gets exactly
/// [`amd`]'s permutation. The factor passes [`ND_LEAF`]; tests pass
/// small leaves to dissect the grids they can afford.
pub(crate) fn nested_dissection(
    n: usize,
    col_ptr: &[usize],
    row_idx: &[u32],
    leaf: usize,
) -> Vec<u32> {
    if n <= leaf {
        return amd(n, col_ptr, row_idx);
    }
    Dissection::new(n, col_ptr, row_idx, leaf).run()
}

/// The state of one nested-dissection run. Every pending part is a
/// contiguous range of `order`, which ends up as the permutation.
struct Dissection {
    leaf: usize,
    /// The pattern's off-diagonal adjacency, CSR.
    adj_ptr: Vec<usize>,
    adj: Vec<u32>,
    order: Vec<u32>,
    /// Tag of the part each node was last marked into; membership tests
    /// compare against the current part's tag.
    part: Vec<u32>,
    /// BFS level of each node of the current level structure, [`NONE`]
    /// everywhere else (reset after every use).
    level: Vec<u32>,
    /// The current level structure's nodes in BFS order; level `l` is
    /// `queue[level_ptr[l]..level_ptr[l + 1]]`.
    queue: Vec<u32>,
    level_ptr: Vec<usize>,
    /// Node → position inside the current leaf part and its halo.
    local: Vec<u32>,
    /// Tag of the leaf part whose halo a node was last put in.
    halo: Vec<u32>,
    scratch: Vec<u32>,
}

impl Dissection {
    #[allow(clippy::cast_possible_truncation)]
    fn new(n: usize, col_ptr: &[usize], row_idx: &[u32], leaf: usize) -> Self {
        let mut adj_ptr = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(row_idx.len());
        adj_ptr.push(0);
        for c in 0..n {
            adj.extend(
                row_idx[col_ptr[c]..col_ptr[c + 1]]
                    .iter()
                    .filter(|&&r| r as usize != c),
            );
            adj_ptr.push(adj.len());
        }
        Dissection {
            leaf,
            adj_ptr,
            adj,
            // CAST(node indices are < n, and every index array of the
            // factor is u32): the identity layout.
            order: (0..n as u32).collect(),
            part: vec![0; n],
            level: vec![NONE; n],
            queue: Vec::with_capacity(n),
            level_ptr: Vec::new(),
            local: vec![0; n],
            halo: vec![0; n],
            scratch: Vec::new(),
        }
    }

    fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.adj_ptr[v as usize]..self.adj_ptr[v as usize + 1]]
    }

    fn run(mut self) -> Vec<u32> {
        let mut stack = vec![(0, self.order.len())];
        let mut tag = 0u32;
        while let Some((lo, hi)) = stack.pop() {
            tag += 1;
            for &v in &self.order[lo..hi] {
                self.part[v as usize] = tag;
            }
            if hi - lo <= self.leaf {
                self.order_leaf(lo, hi, tag);
                continue;
            }
            let start = self.order[lo..hi].iter().copied().fold(NONE, u32::min);
            let levels = self.level_structure(start, tag);
            if self.queue.len() < hi - lo {
                self.clear_levels();
                self.split_components(lo, hi, tag, &mut stack);
                continue;
            }
            let levels = self.pseudo_peripheral(levels, tag);
            if levels < 3 {
                // Every node is within one hop of the root: no level
                // separates anything.
                self.clear_levels();
                self.order_leaf(lo, hi, tag);
                continue;
            }
            let (a_end, b_end) = self.bisect(lo, levels);
            self.clear_levels();
            stack.push((lo, a_end));
            stack.push((a_end, b_end));
        }
        self.order
    }

    /// BFS from `root` over the nodes tagged `tag` into `queue`,
    /// `level` and `level_ptr`; returns the number of levels.
    #[allow(clippy::cast_possible_truncation)]
    fn level_structure(&mut self, root: u32, tag: u32) -> usize {
        self.queue.clear();
        self.level_ptr.clear();
        self.queue.push(root);
        self.level[root as usize] = 0;
        let mut head = 0;
        while head < self.queue.len() {
            let end = self.queue.len();
            self.level_ptr.push(head);
            // CAST(a level number is below the part's node count, so it
            // fits u32 like the node indices):
            let depth = self.level_ptr.len() as u32;
            for q in head..end {
                let v = self.queue[q] as usize;
                for &u in &self.adj[self.adj_ptr[v]..self.adj_ptr[v + 1]] {
                    let ui = u as usize;
                    if self.part[ui] == tag && self.level[ui] == NONE {
                        self.level[ui] = depth;
                        self.queue.push(u);
                    }
                }
            }
            head = end;
        }
        self.level_ptr.push(head);
        self.level_ptr.len() - 1
    }

    fn clear_levels(&mut self) {
        for &v in &self.queue {
            self.level[v as usize] = NONE;
        }
    }

    /// George–Liu: re-root at the lowest-degree node of the last level
    /// (ties by index) until the eccentricity stops growing; leaves the
    /// final root's level structure in place and returns its depth.
    fn pseudo_peripheral(&mut self, mut levels: usize, tag: u32) -> usize {
        loop {
            let last = &self.queue[self.level_ptr[levels - 1]..self.level_ptr[levels]];
            let (_, root) = last
                .iter()
                .map(|&v| (self.neighbors(v).len(), v))
                .fold((usize::MAX, NONE), std::cmp::min);
            self.clear_levels();
            let depth = self.level_structure(root, tag);
            if depth <= levels {
                return depth;
            }
            levels = depth;
        }
    }

    /// Lays the current (connected) part out as `[A | B | S]` from its
    /// level structure and returns the ends of `A` and `B`.
    #[allow(clippy::cast_possible_truncation)]
    fn bisect(&mut self, lo: usize, levels: usize) -> (usize, usize) {
        let mid = levels / 2;
        // CAST(a level number fits u32, as in `level_structure`):
        let far = (mid + 1) as u32;
        let (first, last) = (self.level_ptr[mid], self.level_ptr[mid + 1]);
        let mut sep = std::mem::take(&mut self.scratch);
        sep.clear();
        let mut w = lo;
        // The queue is in level order, so A (the near levels plus the
        // middle nodes that do not touch the far side) comes first,
        // then B; the separator is appended after both.
        for q in 0..self.queue.len() {
            let v = self.queue[q];
            let is_sep = (first..last).contains(&q)
                && self
                    .neighbors(v)
                    .iter()
                    .any(|&u| self.level[u as usize] == far);
            if is_sep {
                sep.push(v);
            } else {
                self.order[w] = v;
                w += 1;
            }
        }
        let a_end = lo + last - sep.len();
        let b_end = w;
        self.order[b_end..b_end + sep.len()].copy_from_slice(&sep);
        self.scratch = sep;
        (a_end, b_end)
    }

    /// Reorders a disconnected part by component (in order of their
    /// lowest buffer position) and pushes the components as new parts,
    /// packing consecutive ones into a shared leaf while they fit.
    fn split_components(
        &mut self,
        lo: usize,
        hi: usize,
        tag: u32,
        stack: &mut Vec<(usize, usize)>,
    ) {
        let mut nodes = std::mem::take(&mut self.scratch);
        nodes.clear();
        let mut ends = Vec::new();
        for i in lo..hi {
            let v = self.order[i];
            if self.level[v as usize] == NONE {
                self.level_structure(v, tag);
                nodes.extend_from_slice(&self.queue);
                ends.push(nodes.len());
            }
        }
        for &v in &nodes {
            self.level[v as usize] = NONE;
        }
        self.order[lo..hi].copy_from_slice(&nodes);
        self.scratch = nodes;
        let (mut group, mut start) = (0, 0);
        for end in ends {
            if end - group > self.leaf && start > group {
                stack.push((lo + group, lo + start));
                group = start;
            }
            start = end;
        }
        stack.push((lo + group, hi));
    }

    /// Orders the leaf part `order[lo..hi]` (tagged `tag`) by [`amd`]
    /// on its induced subgraph plus its halo — the outside neighbors,
    /// all in separators eliminated later — held back as constrained
    /// nodes so the degrees of the part's boundary nodes count them.
    #[allow(clippy::cast_possible_truncation)]
    fn order_leaf(&mut self, lo: usize, hi: usize, tag: u32) {
        let mut nodes = std::mem::take(&mut self.scratch);
        nodes.clear();
        nodes.extend_from_slice(&self.order[lo..hi]);
        let free = nodes.len();
        for (j, &v) in nodes.iter().enumerate() {
            // CAST(a position inside a part is < n, which fits u32):
            self.local[v as usize] = j as u32;
        }
        let mut col_ptr = Vec::with_capacity(free + 1);
        let mut row_idx = Vec::new();
        let mut halo_adj: Vec<Vec<u32>> = Vec::new();
        col_ptr.push(0);
        for j in 0..free {
            let v = nodes[j] as usize;
            for p in self.adj_ptr[v]..self.adj_ptr[v + 1] {
                let u = self.adj[p];
                let ui = u as usize;
                if self.part[ui] != tag && self.halo[ui] != tag {
                    self.halo[ui] = tag;
                    // CAST(the part plus its halo holds < n nodes):
                    self.local[ui] = nodes.len() as u32;
                    nodes.push(u);
                    halo_adj.push(Vec::new());
                }
                let k = self.local[ui];
                if k as usize >= free {
                    // CAST(j is a position inside the part, < n):
                    halo_adj[k as usize - free].push(j as u32);
                }
                row_idx.push(k);
            }
            col_ptr.push(row_idx.len());
        }
        for adj in &halo_adj {
            row_idx.extend_from_slice(adj);
            col_ptr.push(row_idx.len());
        }
        let perm = amd_constrained(nodes.len(), free, &col_ptr, &row_idx);
        for (slot, &j) in self.order[lo..hi].iter_mut().zip(&perm) {
            *slot = nodes[j as usize];
        }
        self.scratch = nodes;
    }
}

/// Node status in the quotient graph.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    /// A live supervariable (candidate pivot).
    Alive,
    /// Merged into another supervariable (follow `merge_parent`).
    Merged,
    /// Eliminated; the node id now names an element.
    Eliminated,
}

/// The quotient-graph state for one AMD run.
struct Quotient {
    n: usize,
    /// Nodes `0..free` are eliminated; the rest never enter the degree
    /// lists (see [`amd_constrained`]).
    free: usize,
    status: Vec<Status>,
    /// Union-find parent for merged supervariables.
    merge_parent: Vec<u32>,
    /// Weight (number of original variables) of each supervariable root.
    nv: Vec<usize>,
    /// Live variable neighbors (may contain stale merged entries;
    /// resolved through `find` on read).
    adj_var: Vec<Vec<u32>>,
    /// Adjacent element ids (may contain absorbed entries).
    adj_el: Vec<Vec<u32>>,
    /// Members of each element (valid only while un-absorbed).
    el_members: Vec<Vec<u32>>,
    el_absorbed: Vec<bool>,
    /// Approximate external degree, weighted by `nv`.
    degree: Vec<usize>,
    // Doubly-linked degree buckets.
    deg_head: Vec<u32>,
    deg_next: Vec<u32>,
    deg_prev: Vec<u32>,
    cur_min: usize,
    // Stamp workspaces (monotone u64 tags, never reset). `mark` holds
    // the current pivot's Lp membership; `mark2` is a scratch dedup
    // stamp that must never clobber `mark` mid-pivot.
    mark: Vec<u64>,
    mark2: Vec<u64>,
    tag: u64,
    /// Per-element external weight cache, valid when `w_stamp` equals
    /// the current pivot's Lp tag.
    w_val: Vec<usize>,
    w_stamp: Vec<u64>,
    /// Scratch dedup stamp for element lists.
    el_mark: Vec<u64>,
    // Supervariable group chains: originals output together.
    group_head: Vec<u32>,
    group_tail: Vec<u32>,
    group_next: Vec<u32>,
    /// Elimination order of supervariable roots.
    elim_order: Vec<u32>,
    // Scratch reused across pivots.
    lp: Vec<u32>,
    scratch: Vec<u32>,
}

impl Quotient {
    fn new(n: usize, free: usize, col_ptr: &[usize], row_idx: &[u32]) -> Self {
        let mut adj_var = vec![Vec::new(); n];
        for c in 0..n {
            let lo = col_ptr[c];
            let hi = col_ptr[c + 1];
            for &r in &row_idx[lo..hi] {
                if r as usize != c {
                    adj_var[c].push(r);
                }
            }
        }
        let degree: Vec<usize> = adj_var.iter().map(Vec::len).collect();
        let mut q = Quotient {
            n,
            free,
            status: vec![Status::Alive; n],
            merge_parent: vec![NONE; n],
            nv: vec![1; n],
            adj_var,
            adj_el: vec![Vec::new(); n],
            el_members: vec![Vec::new(); n],
            el_absorbed: vec![false; n],
            degree,
            deg_head: vec![NONE; n + 1],
            deg_next: vec![NONE; n],
            deg_prev: vec![NONE; n],
            cur_min: 0,
            mark: vec![0; n],
            mark2: vec![0; n],
            tag: 0,
            w_val: vec![0; n],
            w_stamp: vec![0; n],
            el_mark: vec![0; n],
            group_head: (0..n as u32).collect(),
            group_tail: (0..n as u32).collect(),
            group_next: vec![NONE; n],
            elim_order: Vec::with_capacity(n),
            lp: Vec::new(),
            scratch: Vec::new(),
        };
        // Insert in reverse so bucket heads hold the smallest index —
        // deterministic tie-breaking toward low indices.
        for i in (0..free as u32).rev() {
            q.bucket_insert(i);
        }
        q
    }

    /// Resolves a (possibly merged) supervariable to its live root,
    /// with path compression.
    fn find(&mut self, mut i: u32) -> u32 {
        let mut root = i;
        while self.merge_parent[root as usize] != NONE {
            root = self.merge_parent[root as usize];
        }
        while self.merge_parent[i as usize] != NONE {
            let next = self.merge_parent[i as usize];
            self.merge_parent[i as usize] = root;
            i = next;
        }
        root
    }

    fn bucket_insert(&mut self, i: u32) {
        let d = self.degree[i as usize].min(self.n);
        let head = self.deg_head[d];
        self.deg_next[i as usize] = head;
        self.deg_prev[i as usize] = NONE;
        if head != NONE {
            self.deg_prev[head as usize] = i;
        }
        self.deg_head[d] = i;
        if d < self.cur_min {
            self.cur_min = d;
        }
    }

    fn bucket_remove(&mut self, i: u32) {
        let d = self.degree[i as usize].min(self.n);
        let prev = self.deg_prev[i as usize];
        let next = self.deg_next[i as usize];
        if prev != NONE {
            self.deg_next[prev as usize] = next;
        } else if self.deg_head[d] == i {
            self.deg_head[d] = next;
        }
        if next != NONE {
            self.deg_prev[next as usize] = prev;
        }
        self.deg_next[i as usize] = NONE;
        self.deg_prev[i as usize] = NONE;
    }

    fn next_tag(&mut self) -> u64 {
        self.tag += 1;
        self.tag
    }

    fn eliminate_all(&mut self) {
        let mut eliminated = 0usize;
        while eliminated < self.free {
            // Find the minimum-degree pivot.
            while self.cur_min <= self.n && self.deg_head[self.cur_min] == NONE {
                self.cur_min += 1;
            }
            let p = self.deg_head[self.cur_min.min(self.n)];
            debug_assert!(p != NONE, "degree lists exhausted early");
            self.bucket_remove(p);
            eliminated += self.nv[p as usize];
            self.eliminate(p);
        }
    }

    /// Eliminates pivot `p`: forms element `p`, absorbs its adjacent
    /// elements, updates degrees of the affected supervariables and
    /// merges indistinguishable ones.
    fn eliminate(&mut self, p: u32) {
        // --- Build Lp: live supervariables adjacent to p (directly or
        // through p's elements), marked with `tag`.
        let tag = self.next_tag();
        self.mark[p as usize] = tag;
        let mut lp = std::mem::take(&mut self.lp);
        lp.clear();
        let vars = std::mem::take(&mut self.adj_var[p as usize]);
        for &v in &vars {
            let r = self.find(v);
            if self.status[r as usize] == Status::Alive && self.mark[r as usize] != tag {
                self.mark[r as usize] = tag;
                lp.push(r);
            }
        }
        let els = std::mem::take(&mut self.adj_el[p as usize]);
        for &e in &els {
            if self.el_absorbed[e as usize] {
                continue;
            }
            let members = std::mem::take(&mut self.el_members[e as usize]);
            for &v in &members {
                let r = self.find(v);
                if self.status[r as usize] == Status::Alive && self.mark[r as usize] != tag {
                    self.mark[r as usize] = tag;
                    lp.push(r);
                }
            }
            self.el_members[e as usize] = members;
        }
        lp.sort_unstable();

        // --- Absorb p's old elements into the new element p.
        for &e in &els {
            if !self.el_absorbed[e as usize] {
                self.el_absorbed[e as usize] = true;
                self.el_members[e as usize] = Vec::new();
            }
        }
        self.status[p as usize] = Status::Eliminated;
        self.elim_order.push(p);

        let lp_weight: usize = lp.iter().map(|&i| self.nv[i as usize]).sum();

        // --- Rebuild adjacency and recompute degrees for i in Lp.
        for &i in &lp {
            self.bucket_remove(i);

            // Compact adj_var[i]: live roots outside Lp, deduped.
            let dedup = self.next_tag();
            let mut vlist = std::mem::take(&mut self.adj_var[i as usize]);
            let mut kept = std::mem::take(&mut self.scratch);
            kept.clear();
            let mut var_weight = 0usize;
            for &v in &vlist {
                let r = self.find(v);
                if self.status[r as usize] != Status::Alive {
                    continue;
                }
                if self.mark[r as usize] == tag {
                    continue; // covered by the new element p
                }
                if self.mark2[r as usize] == dedup {
                    continue;
                }
                self.mark2[r as usize] = dedup;
                kept.push(r);
                var_weight += self.nv[r as usize];
            }
            vlist.clear();
            vlist.extend_from_slice(&kept);
            self.adj_var[i as usize] = vlist;

            // Compact adj_el[i]: un-absorbed elements, deduped, plus p.
            let eldedup = self.next_tag();
            let mut elist = std::mem::take(&mut self.adj_el[i as usize]);
            kept.clear();
            let mut el_weight = 0usize;
            for &e in &elist {
                if self.el_absorbed[e as usize] || self.el_mark[e as usize] == eldedup {
                    continue;
                }
                self.el_mark[e as usize] = eldedup;
                kept.push(e);
                el_weight += self.cached_external_weight(e, tag);
            }
            kept.push(p);
            elist.clear();
            elist.extend_from_slice(&kept);
            self.adj_el[i as usize] = elist;
            self.scratch = kept;

            // Approximate external degree (Amestoy–Davis–Duff bound).
            let d = var_weight + (lp_weight - self.nv[i as usize]) + el_weight;
            self.degree[i as usize] = d.min(self.n - 1);
        }

        // --- Supervariable detection: merge indistinguishable members
        // of Lp (equal adjacency sets). Hash, then confirm exactly.
        self.merge_indistinguishable(&lp);

        // --- Record the new element and reinsert survivors.
        let mut members = Vec::with_capacity(lp.len());
        for &i in &lp {
            if self.status[i as usize] == Status::Alive {
                members.push(i);
                if (i as usize) < self.free {
                    self.bucket_insert(i);
                }
            }
        }
        self.el_members[p as usize] = members;
        self.lp = lp;
    }

    /// External weight of element `e` w.r.t. the current pivot's Lp,
    /// computed once per pivot and cached in `w_val`/`w_stamp` (the
    /// cache key is the Lp tag itself).
    fn cached_external_weight(&mut self, e: u32, lp_tag: u64) -> usize {
        if self.w_stamp[e as usize] == lp_tag {
            return self.w_val[e as usize];
        }
        let w = self.element_external_weight(e, lp_tag);
        self.w_stamp[e as usize] = lp_tag;
        self.w_val[e as usize] = w;
        w
    }

    /// External weight of element `e` w.r.t. the current pivot's Lp
    /// (members marked with `lp_tag`); also compacts the member list to
    /// live roots as a side effect.
    fn element_external_weight(&mut self, e: u32, lp_tag: u64) -> usize {
        let members = std::mem::take(&mut self.el_members[e as usize]);
        let mut w = 0usize;
        let dedup = self.next_tag();
        let mut compact = Vec::with_capacity(members.len());
        for &v in &members {
            let r = self.find(v);
            if self.status[r as usize] != Status::Alive {
                continue;
            }
            if self.mark2[r as usize] == dedup {
                continue;
            }
            self.mark2[r as usize] = dedup;
            compact.push(r);
            if self.mark[r as usize] != lp_tag {
                w += self.nv[r as usize];
            }
        }
        self.el_members[e as usize] = compact;
        w
    }

    fn merge_indistinguishable(&mut self, lp: &[u32]) {
        if lp.len() < 2 {
            return;
        }
        // Cheap commutative hash of the adjacency sets.
        let hash_of = |q: &Quotient, i: u32| -> u64 {
            let mut h = 0u64;
            for &v in &q.adj_var[i as usize] {
                h = h.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(v) + 1));
            }
            for &e in &q.adj_el[i as usize] {
                h = h.wrapping_add(0x85eb_ca6bu64.wrapping_mul(u64::from(e) + 7));
            }
            h
        };
        let mut hashes: Vec<(u64, u32)> = lp.iter().map(|&i| (hash_of(self, i), i)).collect();
        hashes.sort_unstable();
        let mut a = 0;
        while a < hashes.len() {
            let mut b = a + 1;
            while b < hashes.len() && hashes[b].0 == hashes[a].0 {
                b += 1;
            }
            if b - a > 1 {
                self.merge_group(&hashes[a..b]);
            }
            a = b;
        }
    }

    /// Confirms and applies merges within one hash-equal group.
    fn merge_group(&mut self, group: &[(u64, u32)]) {
        for x in 0..group.len() {
            let i = group[x].1;
            if self.status[i as usize] != Status::Alive {
                continue;
            }
            for item in &group[x + 1..] {
                let j = item.1;
                if self.status[j as usize] != Status::Alive {
                    continue;
                }
                // A constrained node never merges with a free one: the
                // pair would only be output when eliminated together.
                let same_class = ((i as usize) < self.free) == ((j as usize) < self.free);
                if same_class && self.same_adjacency(i, j) {
                    // Merge j into i (i < j by sort order).
                    self.status[j as usize] = Status::Merged;
                    self.merge_parent[j as usize] = i;
                    self.nv[i as usize] += self.nv[j as usize];
                    self.degree[i as usize] =
                        self.degree[i as usize].saturating_sub(self.nv[j as usize]);
                    // Splice j's group chain onto i's.
                    let jt = self.group_head[j as usize];
                    self.group_next[self.group_tail[i as usize] as usize] = jt;
                    self.group_tail[i as usize] = self.group_tail[j as usize];
                    self.adj_var[j as usize] = Vec::new();
                    self.adj_el[j as usize] = Vec::new();
                }
            }
        }
    }

    /// Exact set equality of the (just-compacted) adjacency lists,
    /// ignoring i/j themselves.
    fn same_adjacency(&mut self, i: u32, j: u32) -> bool {
        let vi_len = self.adj_var[i as usize].len();
        let vj_len = self.adj_var[j as usize].len();
        let ei_len = self.adj_el[i as usize].len();
        let ej_len = self.adj_el[j as usize].len();
        if ei_len != ej_len {
            return false;
        }
        // Variable lists may differ only by mutual entries (i lists j).
        let t = self.next_tag();
        let mut i_count = 0usize;
        for idx in 0..vi_len {
            let r = self.find(self.adj_var[i as usize][idx]);
            if r == j {
                continue;
            }
            if self.mark2[r as usize] != t {
                self.mark2[r as usize] = t;
                i_count += 1;
            }
        }
        let mut j_count = 0usize;
        for idx in 0..vj_len {
            let r = self.find(self.adj_var[j as usize][idx]);
            if r == i {
                continue;
            }
            if self.mark2[r as usize] != t {
                return false; // j has a neighbor i lacks
            }
            j_count += 1;
        }
        // j_count may count duplicates; require it to cover i's set.
        if j_count < i_count {
            return false;
        }
        let te = self.next_tag();
        for idx in 0..ei_len {
            let e = self.adj_el[i as usize][idx];
            self.el_mark[e as usize] = te;
        }
        for idx in 0..ej_len {
            let e = self.adj_el[j as usize][idx];
            if self.el_mark[e as usize] != te {
                return false;
            }
        }
        true
    }

    /// Expands the supervariable elimination order into a full
    /// permutation over original indices.
    fn into_perm(self) -> Vec<u32> {
        let mut perm = Vec::with_capacity(self.n);
        for &root in &self.elim_order {
            let mut v = self.group_head[root as usize];
            while v != NONE {
                perm.push(v);
                v = self.group_next[v as usize];
            }
        }
        debug_assert_eq!(perm.len(), self.free);
        perm
    }
}

/// Computes the elimination tree of a symmetric matrix given its upper
/// triangle in CSC form (column `k` holds rows `i <= k`). Returns
/// `parent[k]` (or [`u32::MAX`] for roots), using Liu's algorithm with
/// path compression over an ancestor array.
pub fn etree(n: usize, up_colptr: &[usize], up_rows: &[u32]) -> Vec<u32> {
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for k in 0..n {
        for &ri in &up_rows[up_colptr[k]..up_colptr[k + 1]] {
            let mut i = ri as usize;
            while i < k {
                let next = ancestor[i];
                ancestor[i] = k as u32;
                if next == NONE {
                    parent[i] = k as u32;
                    break;
                }
                i = next as usize;
            }
        }
    }
    parent
}

/// Postorders an elimination forest given `parent`. Returns `post` with
/// `post[k]` = the node visited k-th; children are visited in ascending
/// node order (deterministic).
pub fn postorder(parent: &[u32]) -> Vec<u32> {
    let n = parent.len();
    // Build child lists descending, so pushing them in list order
    // leaves the smallest child on top of the stack.
    let mut head = vec![NONE; n];
    let mut next = vec![NONE; n];
    for (i, &p) in parent.iter().enumerate() {
        if p != NONE {
            next[i] = head[p as usize];
            #[allow(clippy::cast_possible_truncation)]
            {
                head[p as usize] = i as u32;
            }
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut stack: Vec<u32> = Vec::new();
    for r in (0..n).rev() {
        if parent[r] == NONE {
            stack.push(r as u32);
        }
    }
    // Iterative DFS emitting nodes after their children.
    let mut state = vec![false; n]; // false = first visit
    while let Some(&x) = stack.last() {
        let xi = x as usize;
        if !state[xi] {
            state[xi] = true;
            let mut c = head[xi];
            while c != NONE {
                stack.push(c);
                c = next[c as usize];
            }
        } else {
            stack.pop();
            post.push(x);
        }
    }
    post
}

/// Subtree sizes (in nodes, including the root) for an elimination
/// forest in **postorder numbering** — i.e. `parent[k] > k` for every
/// non-root. The subtree rooted at `r` is the contiguous index range
/// `[r + 1 - size[r], r]`.
pub fn subtree_sizes(parent: &[u32]) -> Vec<usize> {
    let n = parent.len();
    let mut size = vec![1usize; n];
    for i in 0..n {
        let p = parent[i];
        if p != NONE {
            let s = size[i];
            size[p as usize] += s;
        }
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the symmetric CSC pattern (with diagonal) of a
    /// rows×cols 5-point grid Laplacian.
    fn grid_pattern(rows: usize, cols: usize) -> (usize, Vec<usize>, Vec<u32>) {
        holed_grid_pattern(rows, cols, usize::MAX)
    }

    /// [`grid_pattern`] with the nodes of a pad lattice removed — every
    /// `pitch` nodes, starting `pitch / 2` in — the shape of a power
    /// grid whose pads are eliminated from the system.
    fn holed_grid_pattern(rows: usize, cols: usize, pitch: usize) -> (usize, Vec<usize>, Vec<u32>) {
        let hole = |r: usize, c: usize| r % pitch == pitch / 2 && c % pitch == pitch / 2;
        let mut idx = vec![NONE; rows * cols];
        let mut n = 0u32;
        for r in 0..rows {
            for c in 0..cols {
                if !hole(r, c) {
                    idx[r * cols + c] = n;
                    n += 1;
                }
            }
        }
        let mut col_ptr = vec![0usize];
        let mut row_idx = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if hole(r, c) {
                    continue;
                }
                let mut col = vec![idx[r * cols + c]];
                let near = [
                    (r.wrapping_sub(1), c),
                    (r + 1, c),
                    (r, c.wrapping_sub(1)),
                    (r, c + 1),
                ];
                for (rr, cc) in near {
                    if rr < rows && cc < cols && !hole(rr, cc) {
                        col.push(idx[rr * cols + cc]);
                    }
                }
                col.sort_unstable();
                row_idx.extend_from_slice(&col);
                col_ptr.push(row_idx.len());
            }
        }
        (n as usize, col_ptr, row_idx)
    }

    fn assert_is_perm(perm: &[u32], n: usize) {
        assert_eq!(perm.len(), n);
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(!seen[p as usize], "duplicate in perm: {p}");
            seen[p as usize] = true;
        }
    }

    /// Exact fill for a symmetric pattern under a permutation, via the
    /// symbolic row-walk: nonzeros of `L + D` and Σⱼ cⱼ² over the
    /// strictly-lower column counts (the numeric factor's work).
    fn fill_nnz(n: usize, col_ptr: &[usize], row_idx: &[u32], perm: &[u32]) -> (usize, f64) {
        let mut pinv = vec![0u32; n];
        for (k, &p) in perm.iter().enumerate() {
            pinv[p as usize] = k as u32;
        }
        // Upper triangle of the permuted pattern, by column.
        let mut up: Vec<Vec<u32>> = vec![Vec::new(); n];
        for c in 0..n {
            for &r in &row_idx[col_ptr[c]..col_ptr[c + 1]] {
                let i = pinv[r as usize];
                let k = pinv[c];
                if i <= k {
                    up[k as usize].push(i);
                }
            }
        }
        let mut up_colptr = vec![0usize];
        let mut up_rows = Vec::new();
        for col in &mut up {
            col.sort_unstable();
            up_rows.extend_from_slice(col);
            up_colptr.push(up_rows.len());
        }
        let parent = etree(n, &up_colptr, &up_rows);
        // Column counts via flagged etree walks.
        let mut lnz = vec![0usize; n];
        let mut flag = vec![u32::MAX; n];
        for k in 0..n {
            flag[k] = k as u32;
            for &ri in &up_rows[up_colptr[k]..up_colptr[k + 1]] {
                let mut i = ri as usize;
                while flag[i] != k as u32 {
                    flag[i] = k as u32;
                    lnz[i] += 1;
                    let p = parent[i];
                    if p == NONE {
                        break;
                    }
                    i = p as usize;
                }
            }
        }
        let work = lnz.iter().map(|&c| (c * c) as f64).sum();
        (lnz.iter().sum::<usize>() + n, work) // + diagonal
    }

    /// Symmetric CSC pattern from an undirected edge list (diagonal
    /// included).
    fn edge_pattern(n: usize, edges: &[(u32, u32)]) -> (Vec<usize>, Vec<u32>) {
        let mut cols: Vec<Vec<u32>> = (0..n as u32).map(|k| vec![k]).collect();
        for &(a, b) in edges {
            cols[a as usize].push(b);
            cols[b as usize].push(a);
        }
        let mut col_ptr = vec![0usize];
        let mut row_idx = Vec::new();
        for mut col in cols {
            col.sort_unstable();
            row_idx.extend_from_slice(&col);
            col_ptr.push(row_idx.len());
        }
        (col_ptr, row_idx)
    }

    #[test]
    fn nested_dissection_returns_valid_permutations() {
        let mut cases: Vec<(usize, Vec<usize>, Vec<u32>)> = Vec::new();
        for (rows, cols) in [(1, 1), (2, 3), (9, 9), (16, 16), (30, 7)] {
            cases.push(grid_pattern(rows, cols));
        }
        cases.push(holed_grid_pattern(40, 40, 20));
        cases.push(holed_grid_pattern(33, 21, 4));
        // Disconnected: a 12×12 grid next to a 10-node path, plus
        // isolated nodes.
        let (gn, gcp, gri) = grid_pattern(12, 12);
        let mut edges = Vec::new();
        for c in 0..gn {
            for &r in &gri[gcp[c]..gcp[c + 1]] {
                if (r as usize) < c {
                    edges.push((r, c as u32));
                }
            }
        }
        edges.extend((0..9).map(|k| (gn as u32 + k, gn as u32 + k + 1)));
        let n = gn + 10 + 5;
        let (cp, ri) = edge_pattern(n, &edges);
        cases.push((n, cp, ri));
        // A path, a star, and diagonal-only patterns.
        let path: Vec<(u32, u32)> = (0..199).map(|k| (k, k + 1)).collect();
        let (cp, ri) = edge_pattern(200, &path);
        cases.push((200, cp, ri));
        let star: Vec<(u32, u32)> = (1..150).map(|k| (0, k)).collect();
        let (cp, ri) = edge_pattern(150, &star);
        cases.push((150, cp, ri));
        let (cp, ri) = edge_pattern(100, &[]);
        cases.push((100, cp, ri));
        cases.push((0, vec![0], Vec::new()));
        for (n, cp, ri) in &cases {
            for leaf in [1, 2, 8, 64, ND_LEAF] {
                assert_is_perm(&nested_dissection(*n, cp, ri, leaf), *n);
            }
        }
    }

    #[test]
    fn nested_dissection_is_deterministic() {
        let (n, cp, ri) = holed_grid_pattern(50, 45, 10);
        let a = nested_dissection(n, &cp, &ri, 16);
        let b = nested_dissection(n, &cp, &ri, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn nested_dissection_up_to_the_leaf_size_is_amd() {
        let (n, cp, ri) = grid_pattern(20, 20);
        assert_eq!(nested_dissection(n, &cp, &ri, n), amd(n, &cp, &ri));
        assert_ne!(nested_dissection(n, &cp, &ri, n - 1), amd(n, &cp, &ri));
        // A 64×64 grid with its pads eliminated is one leaf.
        let (n, cp, ri) = holed_grid_pattern(64, 64, 20);
        assert!(n <= ND_LEAF);
        assert_eq!(nested_dissection(n, &cp, &ri, ND_LEAF), amd(n, &cp, &ri));
    }

    #[test]
    fn nested_dissection_cuts_factor_work_below_amd() {
        // A padded 200×200 grid, and a 100×100 one just above the leaf
        // size, where leaves ordered without their separator halo did
        // 18% more work than AMD.
        for (edge, pitch) in [(200, 20), (100, usize::MAX)] {
            let (n, cp, ri) = holed_grid_pattern(edge, edge, pitch);
            let (fill_amd, work_amd) = fill_nnz(n, &cp, &ri, &amd(n, &cp, &ri));
            let nd = nested_dissection(n, &cp, &ri, ND_LEAF);
            let (fill_nd, work_nd) = fill_nnz(n, &cp, &ri, &nd);
            assert!(
                work_nd < work_amd,
                "{edge}×{edge}: ND work {work_nd:e} (fill {fill_nd}) not below AMD's {work_amd:e} (fill {fill_amd})"
            );
        }
    }

    #[test]
    fn amd_returns_valid_permutation() {
        for (rows, cols) in [(1, 1), (2, 2), (3, 5), (8, 8), (16, 16)] {
            let (n, cp, ri) = grid_pattern(rows, cols);
            let perm = amd(n, &cp, &ri);
            assert_is_perm(&perm, n);
        }
    }

    #[test]
    fn amd_handles_empty_and_diagonal_only() {
        assert!(amd(0, &[0], &[]).is_empty());
        // 4 isolated nodes (diagonal-only pattern).
        let cp = vec![0, 1, 2, 3, 4];
        let ri = vec![0u32, 1, 2, 3];
        let perm = amd(4, &cp, &ri);
        assert_is_perm(&perm, 4);
    }

    #[test]
    fn amd_reduces_fill_versus_natural_on_grid() {
        let (n, cp, ri) = grid_pattern(24, 24);
        let natural: Vec<u32> = (0..n as u32).collect();
        let perm = amd(n, &cp, &ri);
        assert_is_perm(&perm, n);
        let (fill_nat, _) = fill_nnz(n, &cp, &ri, &natural);
        let (fill_amd, _) = fill_nnz(n, &cp, &ri, &perm);
        // Natural ordering on a k×k grid fills ~n·k; AMD should cut it
        // by a wide margin. Require at least 2x to be robust.
        assert!(
            fill_amd * 2 < fill_nat,
            "AMD fill {fill_amd} not < half of natural fill {fill_nat}"
        );
    }

    #[test]
    fn etree_of_chain_is_chain() {
        // Tridiagonal pattern: parent[k] = k+1.
        let n = 6;
        let mut cp = vec![0usize];
        let mut ri = Vec::new();
        for k in 0..n {
            if k > 0 {
                ri.push((k - 1) as u32);
            }
            ri.push(k as u32);
            cp.push(ri.len());
        }
        let parent = etree(n, &cp, &ri);
        for (k, &p) in parent.iter().enumerate().take(n - 1) {
            assert_eq!(p, (k + 1) as u32);
        }
        assert_eq!(parent[n - 1], NONE);
    }

    #[test]
    fn postorder_is_valid_and_sizes_are_contiguous() {
        // Star: 0..4 all children of 5, plus a chain 6->7.
        let parent = vec![5, 5, 5, 5, 5, NONE, 7, NONE];
        let post = postorder(&parent);
        assert_is_perm(&post, parent.len());
        // Relabel and check parent[k] > k in the new numbering.
        let mut pinv = vec![0u32; parent.len()];
        for (k, &p) in post.iter().enumerate() {
            pinv[p as usize] = k as u32;
        }
        let relabeled: Vec<u32> = post
            .iter()
            .map(|&old| {
                let p = parent[old as usize];
                if p == NONE {
                    NONE
                } else {
                    pinv[p as usize]
                }
            })
            .collect();
        for (k, &p) in relabeled.iter().enumerate() {
            if p != NONE {
                assert!(p as usize > k, "postorder violated at {k}");
            }
        }
        let sizes = subtree_sizes(&relabeled);
        for (k, &p) in relabeled.iter().enumerate() {
            if p == NONE {
                continue;
            }
            // Subtree range is contiguous and inside the parent's.
            let lo = k + 1 - sizes[k];
            assert!(lo <= k);
        }
        // Root of the star subtree has size 6.
        let star_root = pinv[5] as usize;
        assert_eq!(sizes[star_root], 6);
    }
}
