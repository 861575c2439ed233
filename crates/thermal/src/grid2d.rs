//! Finite-volume conduction solver on interconnect cross-sections.
//!
//! This module plays the role of the *lab* in the paper's methodology:
//!
//! * Fig. 5 measured the thermal impedance of fabricated AlCu lines to
//!   extract the heat-spreading parameter φ of eq. (14). Here,
//!   [`SingleWireStructure`] builds the same cross-section (wire over
//!   oxide over a silicon heat sink, with an optional low-k gap-fill band)
//!   and [`solve`] produces the temperature field from which
//!   [`WireSolution::effective_width`] and φ follow.
//! * Table 7 consumed a finite-element result (Rzepka et al. \[11\]) for
//!   densely packed multi-level arrays. [`ArrayStructure`] builds a
//!   4-level array cross-section and the same solver extracts the
//!   self-heating coupling constant of eq. (18) for any set of heated
//!   lines.
//!
//! The discretization is a standard cell-centered finite-volume scheme on
//! a non-uniform tensor-product mesh with harmonic-mean face conductances,
//! Dirichlet bottom boundary (substrate at the reference temperature) and
//! adiabatic sides/top. The SPD conduction matrix is solved directly by
//! the workspace's sparse LDLᵀ ([`SparseMatrix::factor_cholesky`]).
//! Everything works in *temperature rise* ΔT above the reference, per unit
//! length of wire (W/m sources).

use hotwire_circuit::sparse::SparseMatrix;
use hotwire_tech::Dielectric;
use hotwire_units::Length;
use serde::{Deserialize, Serialize};

use crate::ThermalError;

/// An axis-aligned rectangle in cross-section coordinates (meters);
/// x runs laterally, y runs from the substrate (0) upward.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Left edge.
    pub x0: f64,
    /// Right edge.
    pub x1: f64,
    /// Bottom edge.
    pub y0: f64,
    /// Top edge.
    pub y1: f64,
}

impl Rect {
    /// Creates a rectangle; coordinates are normalized so `x0 ≤ x1`,
    /// `y0 ≤ y1`.
    #[must_use]
    pub fn new(x0: f64, x1: f64, y0: f64, y1: f64) -> Self {
        Self {
            x0: x0.min(x1),
            x1: x0.max(x1),
            y0: y0.min(y1),
            y1: y0.max(y1),
        }
    }

    /// Area (m² in cross-section).
    #[must_use]
    pub fn area(&self) -> f64 {
        (self.x1 - self.x0) * (self.y1 - self.y0)
    }

    /// `true` when the point is inside (closed on the low edges, open on
    /// the high edges, so abutting rectangles do not overlap).
    #[must_use]
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }
}

/// A material/source region painted onto the structure. Later regions
/// override earlier ones where they overlap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Footprint of the region.
    pub rect: Rect,
    /// Thermal conductivity, W/(m·K).
    pub conductivity: f64,
    /// Volumetric heat source, W/m³ (per unit wire length).
    pub source: f64,
}

/// The thermal condition applied at the top edge of the domain.
///
/// The bottom edge is always the isothermal substrate; the paper's
/// structures have passivation above (adiabatic top, the default), but a
/// flip-chip lid or heat spreader pressed onto the passivation is
/// modelled with an isothermal top at the same reference temperature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TopBoundary {
    /// No heat leaves through the top (default; passivated die surface).
    #[default]
    Adiabatic,
    /// The top surface is held at the reference temperature (ideal lid).
    Isothermal,
}

/// A 2-D cross-section conduction problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Structure {
    width: f64,
    height: f64,
    background_conductivity: f64,
    regions: Vec<Region>,
    #[serde(default)]
    top_boundary: TopBoundary,
}

impl Structure {
    /// Creates a domain of the given extent filled with a background
    /// dielectric conductivity. The bottom edge (y = 0) is the isothermal
    /// substrate.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidInput`] for non-positive extents or
    /// conductivity.
    pub fn new(
        width: Length,
        height: Length,
        background_conductivity: f64,
    ) -> Result<Self, ThermalError> {
        if !(width.value() > 0.0) || !(height.value() > 0.0) {
            return Err(ThermalError::InvalidInput {
                message: "domain extents must be positive".to_owned(),
            });
        }
        if !(background_conductivity > 0.0) {
            return Err(ThermalError::InvalidInput {
                message: "background conductivity must be positive".to_owned(),
            });
        }
        Ok(Self {
            width: width.value(),
            height: height.value(),
            background_conductivity,
            regions: Vec::new(),
            top_boundary: TopBoundary::default(),
        })
    }

    /// Sets the top-edge boundary condition (default adiabatic).
    pub fn set_top_boundary(&mut self, boundary: TopBoundary) {
        self.top_boundary = boundary;
    }

    /// The configured top-edge boundary condition.
    #[must_use]
    pub fn top_boundary(&self) -> TopBoundary {
        self.top_boundary
    }

    /// Paints a region (material and/or heat source) onto the structure.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidInput`] when the region has
    /// non-positive conductivity or pokes outside the domain.
    pub fn add_region(&mut self, region: Region) -> Result<(), ThermalError> {
        if !(region.conductivity > 0.0) {
            return Err(ThermalError::InvalidInput {
                message: "region conductivity must be positive".to_owned(),
            });
        }
        let r = region.rect;
        if r.x0 < -1e-15 || r.x1 > self.width + 1e-15 || r.y0 < -1e-15 || r.y1 > self.height + 1e-15
        {
            return Err(ThermalError::InvalidInput {
                message: "region extends outside the domain".to_owned(),
            });
        }
        self.regions.push(region);
        Ok(())
    }

    /// Domain width (m).
    #[must_use]
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Domain height (m).
    #[must_use]
    pub fn height(&self) -> f64 {
        self.height
    }

    /// The painted regions, in paint order.
    #[must_use]
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    fn material_at(&self, x: f64, y: f64) -> (f64, f64) {
        let mut k = self.background_conductivity;
        let mut q = 0.0;
        for r in &self.regions {
            if r.rect.contains(x, y) {
                k = r.conductivity;
                q = r.source;
            }
        }
        (k, q)
    }

    fn mesh(&self, control: MeshControl) -> Mesh {
        let mut xs: Vec<f64> = vec![0.0, self.width];
        let mut ys: Vec<f64> = vec![0.0, self.height];
        for r in &self.regions {
            xs.extend([r.rect.x0, r.rect.x1]);
            ys.extend([r.rect.y0, r.rect.y1]);
        }
        let xs = refine_axis(xs, control.max_dx);
        let ys = refine_axis(ys, control.max_dy);
        Mesh { xs, ys }
    }
}

/// Mesh-density control for the solver: maximum cell extent per axis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeshControl {
    /// Maximum cell width (m).
    pub max_dx: f64,
    /// Maximum cell height (m).
    pub max_dy: f64,
}

impl MeshControl {
    /// A mesh resolving the given feature size with `cells_per_feature`
    /// cells.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `cells_per_feature` is zero.
    #[must_use]
    pub fn resolving(feature: Length, cells_per_feature: usize) -> Self {
        debug_assert!(cells_per_feature > 0);
        #[allow(clippy::cast_precision_loss)]
        let d = feature.value() / cells_per_feature as f64;
        Self {
            max_dx: d,
            max_dy: d,
        }
    }
}

/// Non-uniform tensor-product mesh (cell edge coordinates).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mesh {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Mesh {
    /// Number of cells in x.
    #[must_use]
    pub fn nx(&self) -> usize {
        self.xs.len() - 1
    }

    /// Number of cells in y.
    #[must_use]
    pub fn ny(&self) -> usize {
        self.ys.len() - 1
    }

    /// The cell-edge coordinates along x (length `nx + 1`).
    #[must_use]
    pub fn x_edges(&self) -> &[f64] {
        &self.xs
    }

    /// The cell-edge coordinates along y (length `ny + 1`).
    #[must_use]
    pub fn y_edges(&self) -> &[f64] {
        &self.ys
    }

    fn cell_center(&self, i: usize, j: usize) -> (f64, f64) {
        (
            0.5 * (self.xs[i] + self.xs[i + 1]),
            0.5 * (self.ys[j] + self.ys[j + 1]),
        )
    }

    fn dx(&self, i: usize) -> f64 {
        self.xs[i + 1] - self.xs[i]
    }

    fn dy(&self, j: usize) -> f64 {
        self.ys[j + 1] - self.ys[j]
    }
}

fn refine_axis(mut marks: Vec<f64>, max_d: f64) -> Vec<f64> {
    marks.sort_by(f64::total_cmp);
    marks.dedup_by(|a, b| (*a - *b).abs() < 1e-15);
    let mut out = Vec::with_capacity(marks.len() * 4);
    for w in marks.windows(2) {
        let (a, b) = (w[0], w[1]);
        let span = b - a;
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        let n = (span / max_d).ceil().max(1.0) as usize;
        for k in 0..n {
            #[allow(clippy::cast_precision_loss)]
            out.push(a + span * (k as f64) / (n as f64));
        }
    }
    out.push(*marks.last().expect("at least two marks"));
    out
}

/// The solved temperature-rise field (ΔT above the substrate reference).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Field {
    mesh: Mesh,
    /// Cell-centered rises, row-major (j·nx + i).
    t: Vec<f64>,
    residual: f64,
}

impl Field {
    /// The mesh the field lives on.
    #[must_use]
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Final relative energy-balance residual.
    #[must_use]
    pub fn residual(&self) -> f64 {
        self.residual
    }

    /// Maximum temperature rise anywhere in the domain (K).
    #[must_use]
    pub fn max_rise(&self) -> f64 {
        self.t.iter().copied().fold(0.0, f64::max)
    }

    /// The temperature rise of the cell `(i, j)` (x-index, y-index from
    /// the substrate).
    ///
    /// # Panics
    ///
    /// Panics for out-of-range indices.
    #[must_use]
    pub fn cell_rise(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.mesh.nx() && j < self.mesh.ny(),
            "cell ({i},{j}) out of range"
        );
        self.t[j * self.mesh.nx() + i]
    }

    /// The temperature rise of the cell containing the point `(x, y)`
    /// (meters); clamps to the nearest cell outside the domain.
    #[must_use]
    pub fn rise_at(&self, x: f64, y: f64) -> f64 {
        let find = |edges: &[f64], v: f64| -> usize {
            match edges.binary_search_by(|e| e.total_cmp(&v)) {
                Ok(k) => k.min(edges.len() - 2),
                Err(k) => k.saturating_sub(1).min(edges.len() - 2),
            }
        };
        let i = find(self.mesh.x_edges(), x);
        let j = find(self.mesh.y_edges(), y);
        self.cell_rise(i, j)
    }

    /// Area-weighted average rise over the cells whose centers fall inside
    /// `rect` (K). Returns 0 for an empty intersection.
    #[must_use]
    pub fn average_rise_in(&self, rect: Rect) -> f64 {
        let nx = self.mesh.nx();
        let mut sum = 0.0;
        let mut area = 0.0;
        for j in 0..self.mesh.ny() {
            for i in 0..nx {
                let (cx, cy) = self.mesh.cell_center(i, j);
                if rect.contains(cx, cy) {
                    let a = self.mesh.dx(i) * self.mesh.dy(j);
                    sum += self.t[j * nx + i] * a;
                    area += a;
                }
            }
        }
        if area > 0.0 {
            sum / area
        } else {
            0.0
        }
    }
}

/// The assembled finite-volume system, per unit wire length.
struct Assembly {
    mesh: Mesh,
    /// Heat injected into each cell (W/m), row-major (j·nx + i).
    q: Vec<f64>,
    total_power: f64,
    /// `gx[j·(nx+1) + i]`: conductance between cells (i-1, j) and (i, j);
    /// the side faces stay 0 (adiabatic).
    gx: Vec<f64>,
    /// `gy[j·nx + i]` for j in 0..=ny: conductance between cells (i, j-1)
    /// and (i, j); j = 0 is the Dirichlet substrate face, j = ny the top
    /// (0 when adiabatic).
    gy: Vec<f64>,
}

/// Meshes `structure` under `control` and assembles its finite-volume
/// system; see [`solve`] for the inputs it refuses.
fn assemble(structure: &Structure, control: MeshControl) -> Result<Assembly, ThermalError> {
    for (name, d) in [("max_dx", control.max_dx), ("max_dy", control.max_dy)] {
        if !(d > 0.0) || !d.is_finite() {
            return Err(ThermalError::InvalidInput {
                message: format!("mesh control {name} must be finite and positive, got {d}"),
            });
        }
    }
    let mesh = structure.mesh(control);
    let nx = mesh.nx();
    let ny = mesh.ny();
    if nx < 2 || ny < 2 {
        return Err(ThermalError::InvalidInput {
            message: "mesh must have at least 2×2 cells".to_owned(),
        });
    }

    // Sample materials at cell centers.
    let mut k = vec![0.0; nx * ny];
    let mut q = vec![0.0; nx * ny];
    let mut total_power = 0.0;
    for j in 0..ny {
        for i in 0..nx {
            let (cx, cy) = mesh.cell_center(i, j);
            let (kc, qc) = structure.material_at(cx, cy);
            k[j * nx + i] = kc;
            let cell_q = qc * mesh.dx(i) * mesh.dy(j);
            q[j * nx + i] = cell_q;
            total_power += cell_q;
        }
    }

    // Harmonic-mean face conductances.
    let mut gx = vec![0.0; (nx + 1) * ny];
    for j in 0..ny {
        for i in 1..nx {
            let k1 = k[j * nx + i - 1];
            let k2 = k[j * nx + i];
            let d1 = mesh.dx(i - 1);
            let d2 = mesh.dx(i);
            gx[j * (nx + 1) + i] = mesh.dy(j) / (d1 / (2.0 * k1) + d2 / (2.0 * k2));
        }
    }
    let mut gy = vec![0.0; nx * (ny + 1)];
    let structure_top_isothermal = structure.top_boundary() == TopBoundary::Isothermal;
    for i in 0..nx {
        // substrate face: half-cell conduction into the isothermal sink
        gy[i] = mesh.dx(i) * (2.0 * k[i]) / mesh.dy(0);
        for j in 1..ny {
            let k1 = k[(j - 1) * nx + i];
            let k2 = k[j * nx + i];
            let d1 = mesh.dy(j - 1);
            let d2 = mesh.dy(j);
            gy[j * nx + i] = mesh.dx(i) / (d1 / (2.0 * k1) + d2 / (2.0 * k2));
        }
        if structure_top_isothermal {
            // half-cell conduction into the isothermal lid
            gy[ny * nx + i] = mesh.dx(i) * (2.0 * k[(ny - 1) * nx + i]) / mesh.dy(ny - 1);
        }
    }
    Ok(Assembly {
        mesh,
        q,
        total_power,
        gx,
        gy,
    })
}

/// The SPD conduction matrix over cells `j·nx + i`. Each interior face
/// stamps the same value into both triangles, so the matrix is exactly
/// symmetric; the substrate and lid faces touch the sink at rise 0 and
/// add to the diagonal only.
fn conduction_matrix(mesh: &Mesh, gx: &[f64], gy: &[f64]) -> SparseMatrix {
    let nx = mesh.nx();
    let ny = mesh.ny();
    let mut a = SparseMatrix::zeros(nx * ny);
    for j in 0..ny {
        for i in 0..nx {
            let c = j * nx + i;
            let ge = gx[j * (nx + 1) + i + 1];
            let gn = gy[(j + 1) * nx + i];
            if i + 1 < nx {
                a.add(c, c + 1, -ge);
                a.add(c + 1, c, -ge);
            }
            if j + 1 < ny {
                a.add(c, c + nx, -gn);
                a.add(c + nx, c, -gn);
            }
            a.add(c, c, gx[j * (nx + 1) + i] + ge + gy[j * nx + i] + gn);
        }
    }
    a
}

/// Solves the conduction problem.
///
/// # Errors
///
/// Returns [`ThermalError::InvalidInput`] for a degenerate mesh: a
/// `control` extent that is not finite and positive, fewer than 2×2
/// cells, or a conduction matrix that fails to factor (the message names
/// the pivot row).
pub fn solve(structure: &Structure, control: MeshControl) -> Result<Field, ThermalError> {
    let Assembly {
        mesh,
        q,
        total_power,
        gx,
        gy,
    } = assemble(structure, control)?;
    if total_power <= 0.0 {
        // No heat: the field is identically the reference temperature.
        let n = q.len();
        return Ok(Field {
            mesh,
            t: vec![0.0; n],
            residual: 0.0,
        });
    }
    let t = conduction_matrix(&mesh, &gx, &gy)
        .factor_cholesky()
        .map_err(|e| ThermalError::InvalidInput {
            message: format!("cross-section conduction matrix: {e}"),
        })?
        .solve(&q);
    let residual = energy_residual(&mesh, &gx, &gy, &q, &t) / total_power;
    Ok(Field { mesh, t, residual })
}

fn energy_residual(mesh: &Mesh, gx: &[f64], gy: &[f64], q: &[f64], t: &[f64]) -> f64 {
    let nx = mesh.nx();
    let ny = mesh.ny();
    let mut sum_sq = 0.0;
    for j in 0..ny {
        for i in 0..nx {
            let c = j * nx + i;
            let gw = gx[j * (nx + 1) + i];
            let ge = gx[j * (nx + 1) + i + 1];
            let gs = gy[j * nx + i];
            let gn = gy[(j + 1) * nx + i];
            let mut r = q[c];
            if gw > 0.0 {
                r += gw * (t[c - 1] - t[c]);
            }
            if ge > 0.0 {
                r += ge * (t[c + 1] - t[c]);
            }
            if gs > 0.0 {
                let tn = if j > 0 { t[c - nx] } else { 0.0 };
                r += gs * (tn - t[c]);
            }
            if gn > 0.0 {
                let tn = if j + 1 < ny { t[c + nx] } else { 0.0 };
                r += gn * (tn - t[c]);
            }
            sum_sq += r * r;
        }
    }
    sum_sq.sqrt()
}

// ---------------------------------------------------------------------------
// High-level structures
// ---------------------------------------------------------------------------

/// The Fig. 5 test structure: one wire of width `W` and thickness `t_m`
/// sitting on `t_ox` of under-dielectric above the silicon substrate, with
/// an intra-level gap-fill dielectric band beside the wire and a
/// passivation cap above.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SingleWireStructure {
    /// Wire width.
    pub width: Length,
    /// Wire (metal) thickness.
    pub thickness: Length,
    /// Under-dielectric thickness (t_ox of eq. 8).
    pub t_ox: Length,
    /// Dielectric below the wire (usually oxide).
    pub under: Dielectric,
    /// Intra-level gap-fill dielectric beside the wire — the low-k slot.
    pub gap_fill: Dielectric,
    /// Passivation/ILD above the wire.
    pub cap: Dielectric,
    /// Cap thickness above the wire.
    pub cap_thickness: Length,
    /// Metal thermal conductivity, W/(m·K).
    pub metal_conductivity: f64,
    /// Same-level neighbour lines on each side: `(count, pitch, heated)`.
    /// `None` (the default) models the isolated line of the paper's
    /// Fig. 5; heated neighbours model a same-level bus (the lateral part
    /// of the Fig. 8 proximity effect).
    pub neighbors: Option<(usize, Length, bool)>,
}

impl SingleWireStructure {
    /// A structure with oxide everywhere (the paper's "standard oxide
    /// process").
    #[must_use]
    pub fn all_oxide(width: Length, thickness: Length, t_ox: Length) -> Self {
        Self {
            width,
            thickness,
            t_ox,
            under: Dielectric::oxide(),
            gap_fill: Dielectric::oxide(),
            cap: Dielectric::oxide(),
            cap_thickness: Length::from_micrometers(1.0),
            metal_conductivity: 200.0, // AlCu, as in Fig. 5
            neighbors: None,
        }
    }

    /// Adds `count` neighbour lines on *each* side at the given pitch;
    /// `heated` selects whether they dissipate the same line power as the
    /// center wire.
    #[must_use]
    pub fn with_neighbors(mut self, count: usize, pitch: Length, heated: bool) -> Self {
        self.neighbors = Some((count, pitch, heated));
        self
    }

    /// Same geometry with a low-k gap fill (the paper's "HSQ process").
    #[must_use]
    pub fn with_gap_fill(mut self, gap_fill: Dielectric) -> Self {
        self.gap_fill = gap_fill;
        self
    }

    /// Builds the solvable [`Structure`] with `padding` of lateral
    /// dielectric on each side of the wire, and returns it with the wire
    /// footprint.
    ///
    /// # Errors
    ///
    /// Propagates [`ThermalError::InvalidInput`] for degenerate geometry.
    pub fn build(&self, padding: Length) -> Result<(Structure, Rect), ThermalError> {
        let w = self.width.value();
        let tm = self.thickness.value();
        let tox = self.t_ox.value();
        let cap = self.cap_thickness.value();
        let pad = padding.value();
        let domain_w = w + 2.0 * pad;
        let domain_h = tox + tm + cap;
        let mut s = Structure::new(
            Length::new(domain_w),
            Length::new(domain_h),
            self.under.thermal_conductivity().value(),
        )?;
        // gap-fill band at wire level
        s.add_region(Region {
            rect: Rect::new(0.0, domain_w, tox, tox + tm),
            conductivity: self.gap_fill.thermal_conductivity().value(),
            source: 0.0,
        })?;
        // cap above
        s.add_region(Region {
            rect: Rect::new(0.0, domain_w, tox + tm, domain_h),
            conductivity: self.cap.thermal_conductivity().value(),
            source: 0.0,
        })?;
        // the wire itself, heated with unit line power (1 W/m)
        let wire = Rect::new(pad, pad + w, tox, tox + tm);
        s.add_region(Region {
            rect: wire,
            conductivity: self.metal_conductivity,
            source: 1.0 / (w * tm), // W/m³ for 1 W per meter of wire
        })?;
        // optional same-level neighbours
        if let Some((count, pitch, heated)) = self.neighbors {
            let p = pitch.value();
            let center = pad + w / 2.0;
            for k in 1..=count {
                #[allow(clippy::cast_precision_loss)]
                for side in [-1.0, 1.0] {
                    let cx = center + side * (k as f64) * p;
                    let x0 = cx - w / 2.0;
                    let x1 = cx + w / 2.0;
                    if x0 < 0.0 || x1 > domain_w {
                        continue; // neighbour falls outside the padding
                    }
                    s.add_region(Region {
                        rect: Rect::new(x0, x1, tox, tox + tm),
                        conductivity: self.metal_conductivity,
                        source: if heated { 1.0 / (w * tm) } else { 0.0 },
                    })?;
                }
            }
        }
        Ok((s, wire))
    }

    /// Solves the structure and post-processes the thermal impedance and
    /// heat-spreading parameters.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn solve(
        &self,
        padding: Length,
        control: MeshControl,
    ) -> Result<WireSolution, ThermalError> {
        let (s, wire) = self.build(padding)?;
        let field = solve(&s, control)?;
        let rise = field.average_rise_in(wire);
        Ok(WireSolution {
            structure: self.clone(),
            rise_per_watt_per_meter: rise,
            field,
            wire,
        })
    }
}

/// Post-processed solution for a [`SingleWireStructure`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSolution {
    structure: SingleWireStructure,
    rise_per_watt_per_meter: f64,
    field: Field,
    wire: Rect,
}

impl WireSolution {
    /// Average wire temperature rise per unit line power, K/(W/m).
    #[must_use]
    pub fn rise_per_line_power(&self) -> f64 {
        self.rise_per_watt_per_meter
    }

    /// Thermal impedance θ_int of a wire of the given length (eq. 8).
    #[must_use]
    pub fn thermal_impedance(&self, length: Length) -> hotwire_units::ThermalImpedance {
        hotwire_units::ThermalImpedance::new(self.rise_per_watt_per_meter / length.value())
    }

    /// The effective heat-conduction width implied by the solve
    /// (inverting eq. 10 with the *under*-dielectric stack):
    /// `W_eff = (t_ox/k_under)/(θ·L)`.
    #[must_use]
    pub fn effective_width(&self) -> Length {
        let series =
            self.structure.t_ox.value() / self.structure.under.thermal_conductivity().value();
        Length::new(series / self.rise_per_watt_per_meter)
    }

    /// The heat-spreading parameter φ implied by the solve (eq. 14).
    #[must_use]
    pub fn phi(&self) -> f64 {
        crate::impedance::extract_phi(
            self.effective_width(),
            self.structure.width,
            self.structure.t_ox,
        )
    }

    /// The raw temperature field.
    #[must_use]
    pub fn field(&self) -> &Field {
        &self.field
    }
}

/// One metallization level of an [`ArrayStructure`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrayLevel {
    /// Line width.
    pub width: Length,
    /// Wiring pitch.
    pub pitch: Length,
    /// Metal thickness.
    pub thickness: Length,
    /// ILD below this level.
    pub ild_below: Length,
}

/// A densely packed multi-level interconnect array (the paper's Fig. 8),
/// modelled over one wiring pitch with symmetry (adiabatic) side walls —
/// equivalent to an infinite array when every line of a level behaves the
/// same.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayStructure {
    /// Levels, bottom-up.
    pub levels: Vec<ArrayLevel>,
    /// Dielectric filling everything (inter- and intra-level).
    pub dielectric: Dielectric,
    /// Passivation thickness above the top level.
    pub cap_thickness: Length,
    /// Metal thermal conductivity, W/(m·K).
    pub metal_conductivity: f64,
    /// How many array periods to include laterally (odd; 1 = infinite
    /// dense array by symmetry, larger values with only the center line
    /// heated approximate an isolated line).
    pub periods: usize,
}

impl ArrayStructure {
    /// Builds the solvable structure. `heated_levels[i]` selects whether
    /// the lines of level `i` dissipate; each heated line gets unit line
    /// power (1 W/m). In multi-period domains only the center column's
    /// lines are heated on levels marked heated when `center_only` is
    /// true.
    ///
    /// Returns the structure and the footprint of the center line of
    /// `target_level`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidInput`] for empty levels, bad target
    /// or even `periods`.
    pub fn build(
        &self,
        heated_levels: &[bool],
        center_only: bool,
        target_level: usize,
    ) -> Result<(Structure, Rect), ThermalError> {
        if self.levels.is_empty() {
            return Err(ThermalError::InvalidInput {
                message: "array needs at least one level".to_owned(),
            });
        }
        if heated_levels.len() != self.levels.len() {
            return Err(ThermalError::InvalidInput {
                message: "heated_levels length must match levels".to_owned(),
            });
        }
        if target_level >= self.levels.len() {
            return Err(ThermalError::InvalidInput {
                message: format!(
                    "target level {target_level} out of range for {} levels",
                    self.levels.len()
                ),
            });
        }
        if self.periods == 0 || self.periods.is_multiple_of(2) {
            return Err(ThermalError::InvalidInput {
                message: "periods must be odd and ≥ 1".to_owned(),
            });
        }
        let max_pitch = self
            .levels
            .iter()
            .map(|l| l.pitch.value())
            .fold(0.0, f64::max);
        #[allow(clippy::cast_precision_loss)]
        let domain_w = max_pitch * self.periods as f64;
        let total_h: f64 = self
            .levels
            .iter()
            .map(|l| l.ild_below.value() + l.thickness.value())
            .sum::<f64>()
            + self.cap_thickness.value();
        let mut s = Structure::new(
            Length::new(domain_w),
            Length::new(total_h),
            self.dielectric.thermal_conductivity().value(),
        )?;

        let mut y = 0.0;
        let mut target_rect = None;
        for (li, level) in self.levels.iter().enumerate() {
            y += level.ild_below.value();
            let w = level.width.value();
            let p = level.pitch.value();
            // lines centered on multiples of the level pitch, offset so one
            // line is centered in the domain
            let center = domain_w / 2.0;
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                clippy::cast_precision_loss
            )]
            let n_side = (center / p).floor() as i64;
            for m in -n_side..=n_side {
                #[allow(clippy::cast_precision_loss)]
                let cx = center + (m as f64) * p;
                let x0 = cx - w / 2.0;
                let x1 = cx + w / 2.0;
                if x0 < 0.0 || x1 > domain_w {
                    continue;
                }
                let rect = Rect::new(x0, x1, y, y + level.thickness.value());
                let is_center = m == 0;
                let heat = heated_levels[li] && (!center_only || is_center);
                s.add_region(Region {
                    rect,
                    conductivity: self.metal_conductivity,
                    source: if heat {
                        1.0 / (w * level.thickness.value())
                    } else {
                        0.0
                    },
                })?;
                if li == target_level && is_center {
                    target_rect = Some(rect);
                }
            }
            y += level.thickness.value();
        }
        let target = target_rect.ok_or_else(|| ThermalError::InvalidInput {
            message: "target line did not fit in the domain".to_owned(),
        })?;
        Ok((s, target))
    }

    /// Solves for the temperature rise of the center line of
    /// `target_level`, returning K per (W/m) of per-line dissipation.
    ///
    /// * `dense` — every line of every level in `heated_levels` is hot
    ///   (the paper's "M1–M4 heated (3-D)" row of Table 7).
    /// * otherwise — only the center line of the target level is hot
    ///   ("isolated M4 heated").
    ///
    /// # Errors
    ///
    /// Propagates build and solver errors.
    pub fn solve_rise(
        &self,
        heated_levels: &[bool],
        dense: bool,
        target_level: usize,
        control: MeshControl,
    ) -> Result<f64, ThermalError> {
        let (s, target) = self.build(heated_levels, !dense, target_level)?;
        let field = solve(&s, control)?;
        Ok(field.average_rise_in(target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    /// Uniform slab with a full-width heater band on top of the domain —
    /// 1-D conduction with an exact answer.
    #[test]
    fn uniform_slab_matches_1d_conduction() {
        let k = 1.0;
        let h = 1.0e-6; // 1 µm slab
        let w = 2.0e-6;
        let mut s = Structure::new(Length::new(w), Length::new(h), k).unwrap();
        // heater: thin band at the top, total 1 W/m
        let band = Rect::new(0.0, w, 0.9e-6, 1.0e-6);
        s.add_region(Region {
            rect: band,
            conductivity: k,
            source: 1.0 / band.area(),
        })
        .unwrap();
        let field = solve(
            &s,
            MeshControl {
                max_dx: 0.2e-6,
                max_dy: 0.02e-6,
            },
        )
        .unwrap();
        // Exact: heat generated uniformly in [0.9, 1.0] µm flows down through
        // 0.9 µm of slab: ΔT at band bottom = P·t/(k·W) with P = 1 W/m spread
        // over width w ⇒ ΔT = 1·0.9e-6/(1·2e-6) = 0.45 K; inside the band the
        // profile is parabolic adding p·d²/(2k)/... small extra.
        let rise = field.average_rise_in(band);
        assert!((rise - 0.45).abs() < 0.04, "rise = {rise}");
        assert!(field.residual() < 1e-7);
    }

    #[test]
    fn no_heat_means_no_rise() {
        let s = Structure::new(um(1.0), um(1.0), 1.0).unwrap();
        let field = solve(
            &s,
            MeshControl {
                max_dx: 0.2e-6,
                max_dy: 0.2e-6,
            },
        )
        .unwrap();
        assert_eq!(field.max_rise(), 0.0);
        assert_eq!(field.residual(), 0.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(Structure::new(um(0.0), um(1.0), 1.0).is_err());
        assert!(Structure::new(um(1.0), um(1.0), 0.0).is_err());
        let mut s = Structure::new(um(1.0), um(1.0), 1.0).unwrap();
        assert!(s
            .add_region(Region {
                rect: Rect::new(0.0, 2.0e-6, 0.0, 0.5e-6),
                conductivity: 1.0,
                source: 0.0,
            })
            .is_err());
        assert!(s
            .add_region(Region {
                rect: Rect::new(0.0, 0.5e-6, 0.0, 0.5e-6),
                conductivity: -1.0,
                source: 0.0,
            })
            .is_err());
        // A degenerate mesh control is refused before any meshing: a zero
        // extent would ask for usize::MAX cells, a NaN or negative one for a
        // single cell per span.
        let (heated, _) = SingleWireStructure::all_oxide(um(0.35), um(0.55), um(1.2))
            .build(um(1.0))
            .unwrap();
        for bad in [0.0, -1e-7, f64::NAN, f64::INFINITY] {
            for control in [
                MeshControl {
                    max_dx: bad,
                    max_dy: 0.1e-6,
                },
                MeshControl {
                    max_dx: 0.1e-6,
                    max_dy: bad,
                },
            ] {
                assert!(
                    matches!(
                        solve(&heated, control),
                        Err(ThermalError::InvalidInput { .. })
                    ),
                    "{control:?} must be rejected"
                );
            }
        }
    }

    #[test]
    fn wide_wire_approaches_quasi_1d() {
        // For W ≫ t_ox the effective width tends to W + O(t_ox):
        // φ should be a small O(1) number and θ close to t_ox/(k·W·L).
        let sw = SingleWireStructure::all_oxide(um(10.0), um(0.55), um(1.2));
        let sol = sw
            .solve(um(8.0), MeshControl::resolving(um(0.15), 1))
            .unwrap();
        let weff = sol.effective_width().to_micrometers();
        assert!(weff > 10.0, "W_eff = {weff} must exceed the drawn width");
        assert!(weff < 16.0, "W_eff = {weff} should be W + O(t_ox)");
    }

    #[test]
    fn narrow_wire_has_large_phi() {
        // The paper's regime: W/t_ox ≈ 0.29 ⇒ φ ≈ 2.45. Our solver should
        // land in the same neighbourhood (2-D spreading well beyond 0.88).
        let sw = SingleWireStructure::all_oxide(um(0.35), um(0.55), um(1.2));
        let sol = sw
            .solve(um(6.0), MeshControl::resolving(um(0.06), 1))
            .unwrap();
        let phi = sol.phi();
        assert!(phi > 1.2, "φ = {phi} should exceed the quasi-1-D 0.88");
        assert!(phi < 4.5, "φ = {phi} should stay physical");
    }

    #[test]
    fn lowk_gap_fill_raises_impedance() {
        let base = SingleWireStructure::all_oxide(um(0.35), um(0.55), um(1.2));
        let hsq = base.clone().with_gap_fill(Dielectric::hsq());
        let c = MeshControl::resolving(um(0.07), 1);
        let t_ox = base.solve(um(5.0), c).unwrap().rise_per_line_power();
        let t_hsq = hsq.solve(um(5.0), c).unwrap().rise_per_line_power();
        let increase = t_hsq / t_ox - 1.0;
        // Paper Fig. 5: ≈ 20 % higher for the narrowest line.
        assert!(
            increase > 0.05 && increase < 0.6,
            "HSQ gap fill raised θ by {increase:.2}"
        );
    }

    #[test]
    fn theta_decreases_with_width() {
        let c = MeshControl::resolving(um(0.1), 1);
        let mut prev = f64::INFINITY;
        for w in [0.35, 1.0, 2.0, 3.5] {
            let sw = SingleWireStructure::all_oxide(um(w), um(0.55), um(1.2));
            let r = sw.solve(um(6.0), c).unwrap().rise_per_line_power();
            assert!(r < prev, "θ must fall as the line widens");
            prev = r;
        }
    }

    fn four_level_array() -> ArrayStructure {
        ArrayStructure {
            levels: vec![
                ArrayLevel {
                    width: um(0.4),
                    pitch: um(0.8),
                    thickness: um(0.6),
                    ild_below: um(0.8),
                },
                ArrayLevel {
                    width: um(0.4),
                    pitch: um(0.8),
                    thickness: um(0.6),
                    ild_below: um(0.7),
                },
                ArrayLevel {
                    width: um(0.6),
                    pitch: um(1.2),
                    thickness: um(0.8),
                    ild_below: um(0.7),
                },
                ArrayLevel {
                    width: um(1.0),
                    pitch: um(2.0),
                    thickness: um(1.0),
                    ild_below: um(0.8),
                },
            ],
            dielectric: Dielectric::oxide(),
            cap_thickness: um(1.0),
            metal_conductivity: 395.0,
            periods: 5,
        }
    }

    #[test]
    fn dense_array_runs_hotter_than_isolated_line() {
        let array = four_level_array();
        let c = MeshControl::resolving(um(0.12), 1);
        let all = vec![true; 4];
        let dense = array.solve_rise(&all, true, 3, c).unwrap();
        let isolated = array.solve_rise(&all, false, 3, c).unwrap();
        assert!(
            dense > 1.5 * isolated,
            "dense {dense} vs isolated {isolated}: coupling must heat the target"
        );
    }

    #[test]
    fn array_build_validation() {
        let mut a = four_level_array();
        assert!(a.build(&[true; 3], false, 0).is_err()); // wrong mask length
        assert!(a.build(&[true; 4], false, 9).is_err()); // bad target
        a.periods = 2;
        assert!(a.build(&[true; 4], false, 0).is_err()); // even periods
        a.periods = 1;
        a.levels.clear();
        assert!(a.build(&[], false, 0).is_err()); // empty
    }

    #[test]
    fn heated_neighbors_raise_and_cold_neighbors_lower_the_rise() {
        let base = SingleWireStructure::all_oxide(um(0.5), um(0.55), um(1.2));
        let c = MeshControl::resolving(um(0.08), 1);
        let isolated = base.solve(um(6.0), c).unwrap().rise_per_line_power();
        // cold metal neighbours add lateral heat-spreading paths
        let cold = base
            .clone()
            .with_neighbors(2, um(1.2), false)
            .solve(um(6.0), c)
            .unwrap()
            .rise_per_line_power();
        assert!(cold < isolated, "cold {cold} vs isolated {isolated}");
        // heated neighbours couple thermally and raise the center rise
        let hot = base
            .clone()
            .with_neighbors(2, um(1.2), true)
            .solve(um(6.0), c)
            .unwrap()
            .rise_per_line_power();
        assert!(hot > 1.2 * isolated, "hot {hot} vs isolated {isolated}");
        // tighter pitch couples harder
        let hot_tight = base
            .clone()
            .with_neighbors(2, um(0.8), true)
            .solve(um(6.0), c)
            .unwrap()
            .rise_per_line_power();
        assert!(hot_tight > hot);
    }

    #[test]
    fn isothermal_lid_cools_the_wire() {
        let build = |top: TopBoundary| {
            let sw = SingleWireStructure::all_oxide(um(0.5), um(0.55), um(1.2));
            let (mut structure, wire) = sw.build(um(3.0)).unwrap();
            structure.set_top_boundary(top);
            let field = solve(&structure, MeshControl::resolving(um(0.1), 1)).unwrap();
            field.average_rise_in(wire)
        };
        let adiabatic = build(TopBoundary::Adiabatic);
        let lidded = build(TopBoundary::Isothermal);
        assert!(
            lidded < 0.75 * adiabatic,
            "a lid must cool the wire substantially: {lidded} vs {adiabatic}"
        );
    }

    /// The Table 7 dense array: the 0.25 µm preset's lower four levels.
    fn table7_array() -> ArrayStructure {
        ArrayStructure {
            levels: hotwire_tech::presets::ntrs_250nm().layers()[..4]
                .iter()
                .map(|l| ArrayLevel {
                    width: l.width(),
                    pitch: l.pitch(),
                    thickness: l.thickness(),
                    ild_below: l.ild_below(),
                })
                .collect(),
            dielectric: Dielectric::oxide(),
            cap_thickness: um(1.0),
            metal_conductivity: 395.0,
            periods: 5,
        }
    }

    /// Direct vs iterative: Jacobi-preconditioned CG on the same assembled
    /// system lands on the LDLᵀ field.
    #[test]
    fn ldlt_and_jacobi_pcg_agree() {
        use hotwire_circuit::pcg::{pcg, PcgWork};

        let (wire, _) = SingleWireStructure::all_oxide(um(1.0), um(0.55), um(1.2))
            .build(um(4.0))
            .unwrap();
        let (dense, _) = table7_array().build(&[true; 4], false, 3).unwrap();
        let (mut lidded, _) = SingleWireStructure::all_oxide(um(0.5), um(0.55), um(1.2))
            .build(um(3.0))
            .unwrap();
        lidded.set_top_boundary(TopBoundary::Isothermal);
        for (structure, cell) in [(wire, 0.15), (dense, 0.1), (lidded, 0.1)] {
            let control = MeshControl::resolving(um(cell), 1);
            let direct = solve(&structure, control).unwrap();
            let Assembly {
                mesh, q, gx, gy, ..
            } = assemble(&structure, control).unwrap();
            let a = conduction_matrix(&mesh, &gx, &gy);
            let nx = mesh.nx();
            let diag: Vec<f64> = (0..q.len())
                .map(|c| {
                    let (i, j) = (c % nx, c / nx);
                    gx[j * (nx + 1) + i] + gx[j * (nx + 1) + i + 1] + gy[c] + gy[c + nx]
                })
                .collect();
            let mut t = vec![0.0; q.len()];
            pcg(
                |v, out| out.copy_from_slice(&a.mul_vec(v)),
                |r, z| {
                    for ((zi, ri), di) in z.iter_mut().zip(r).zip(&diag) {
                        *zi = ri / di;
                    }
                },
                &q,
                &mut t,
                q.len(),
                &mut PcgWork::default(),
            )
            .unwrap();
            let scale = direct.max_rise();
            let diff = t
                .iter()
                .zip(&direct.t)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max);
            assert!(
                diff <= 1e-9 * scale,
                "{}×{} mesh: PCG differs from LDLᵀ by {diff:e} (max rise {scale:e})",
                mesh.nx(),
                mesh.ny()
            );
        }
    }

    #[test]
    fn field_accessors() {
        let mut s = Structure::new(um(2.0), um(1.0), 1.0).unwrap();
        let band = Rect::new(0.0, 2.0e-6, 0.8e-6, 1.0e-6);
        s.add_region(Region {
            rect: band,
            conductivity: 1.0,
            source: 1.0 / band.area(),
        })
        .unwrap();
        let field = solve(
            &s,
            MeshControl {
                max_dx: 0.25e-6,
                max_dy: 0.05e-6,
            },
        )
        .unwrap();
        assert_eq!(field.mesh().x_edges().len(), field.mesh().nx() + 1);
        // hotter near the heater than near the substrate
        let top = field.rise_at(1.0e-6, 0.9e-6);
        let bottom = field.rise_at(1.0e-6, 0.05e-6);
        assert!(top > bottom);
        // clamping outside the domain returns edge cells, no panic
        let _ = field.rise_at(-1.0, -1.0);
        let _ = field.rise_at(1.0, 1.0);
        // cell_rise agrees with rise_at for an interior cell
        assert!((field.cell_rise(0, 0) - field.rise_at(1e-9, 1e-9)).abs() < 1e-15);
    }

    #[test]
    fn rect_contains_and_area() {
        let r = Rect::new(1.0, 0.0, 0.0, 2.0); // auto-normalized
        assert_eq!(r.x0, 0.0);
        assert_eq!(r.area(), 2.0);
        assert!(r.contains(0.5, 1.0));
        assert!(!r.contains(1.5, 1.0));
        assert!(!r.contains(0.5, 2.0)); // open on high edge
    }
}
