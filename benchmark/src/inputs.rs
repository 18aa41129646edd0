//! Seeded workload inputs.
//!
//! Everything a run feeds the program is generated here: the Paris
//! case-study tables and LAI grid (`ParisFixture::generate` with the
//! paper fixture's seed), and, from `--seed`, the query pool and the
//! step schedule the load generator cycles through. The program under
//! test only ever sees the generated tables (at set-up) and the query
//! texts (over HTTP).

use applab_array::Dataset;
use applab_bench::httpload::percent_encode;
use applab_data::{mappings, ParisFixture};
use applab_geo::Envelope;
use applab_geotriples::TabularSource;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// World grid size of every workload: ~70.8k triples once materialized.
pub const WORLD_CELLS: usize = 80;
/// Seed of the Paris world: the one `ParisFixture::default_fixture`
/// uses. The world stays the same for every `--seed`, so run-to-run
/// spread measures the program and the host, not how many parks a
/// seed's world happened to grow (the park join's cost follows that
/// count).
pub const WORLD_SEED: u64 = 2019;
/// LAI grid resolution of `obda_viewport`: 12 monthly steps of 20×20
/// pixels, ~4.7k observations once `LAI > 0` drops the bare pixels.
/// Sized so a viewport step takes 10–30 ms on a 2-vCPU host (a 30×30
/// grid, ~10k observations, made the LAI query alone take 20–40 ms).
pub const LAI_RESOLUTION: usize = 20;
/// Name the LAI product is published under on the embedded DAP server.
pub const LAI_DATASET: &str = "lai";
/// Cache window of the `opendap` virtual table (the paper's w = 10 min).
pub const LAI_WINDOW_MINUTES: u64 = 10;
/// Zoom level of the SDL tile grid the viewport steps fetch.
pub const TILE_ZOOM: u8 = 3;
/// Once every `EXTRA_EVERY` viewport steps the app draws the Bois de
/// Boulogne outline, and once (half a period later) it runs Listing 1.
/// Both land inside the warm-up's first steps too, so even a short run
/// checks them.
pub const EXTRA_EVERY: usize = 64;
const OUTLINE_AT: usize = 7;
const LISTING1_AT: usize = OUTLINE_AT + EXTRA_EVERY / 2;
/// Mean simulated gap between viewport steps: with the 10-min window,
/// about one step in ten finds the virtual table expired.
pub const MEAN_STEP_GAP_SECS: f64 = 60.0;

/// Steps per second one closed-loop connection is assumed to run when a
/// phase is sized: about what one reaches on a 2-vCPU host, on both
/// workloads.
pub const CLOSED_LOOP_RATE: f64 = 44.0;

/// The workloads the benchmark defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The seven mini-Geographica classes over the materialized store.
    StoreGeographica,
    /// A pan/zoom trace over the on-the-fly (OBDA + OPeNDAP) workflow.
    ObdaViewport,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::StoreGeographica, Workload::ObdaViewport];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StoreGeographica => "store_geographica",
            Workload::ObdaViewport => "obda_viewport",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The endpoint the workload's queries are served by.
    pub fn endpoint(self) -> &'static str {
        match self {
            Workload::ObdaViewport => "obda",
            _ => "store",
        }
    }

    /// Steps after which the schedule's mix of work repeats: a lap of
    /// the seven classes, one outline + Listing 1 period of the viewport
    /// trace.
    pub fn mix_period(self) -> usize {
        match self {
            Workload::StoreGeographica => 7,
            Workload::ObdaViewport => EXTRA_EVERY,
        }
    }

    /// Share of `--seconds` the closed-loop capacity phase is sized for;
    /// the open loop takes the rest. At `--seconds 50` the latency phase
    /// is long enough for more than 1000 samples at the offered rate
    /// (p99 then has ten beyond it), and the capacity phase for dozens
    /// of mix periods.
    pub fn capacity_share(self) -> f64 {
        match self {
            Workload::StoreGeographica => 0.25,
            Workload::ObdaViewport => 0.3,
        }
    }

    /// Steps one closed-loop connection runs in a phase sized for
    /// `secs` seconds: whole mix periods (at least one) at
    /// [`CLOSED_LOOP_RATE`]. The count is fixed, not the time, so every
    /// operation of a run, and so every wrong answer the known defect
    /// gives, is the same for a seed; a faster program ends the phase
    /// sooner.
    pub fn closed_loop_steps(self, secs: f64) -> usize {
        let period = self.mix_period();
        ((secs * CLOSED_LOOP_RATE / period as f64).round() as usize).max(1) * period
    }

    /// Fixed open-loop offered rate of the latency phase, steps/s: about
    /// a third of the closed-loop capacity on a 2-vCPU host. Fixed (not
    /// derived from the run's own capacity) so that a faster program
    /// shows up as lower latency at the same load. At half the capacity
    /// the median latency of `store_geographica` swung up to 2.8× between
    /// runs on a 2-vCPU VM.
    pub fn offered_rate(self) -> f64 {
        match self {
            Workload::StoreGeographica => 30.0,
            Workload::ObdaViewport => 32.0,
        }
    }
}

/// One distinct query of the pool.
#[derive(Debug, Clone)]
pub struct PoolQuery {
    /// Query class (Geographica class or viewport operation).
    pub class: &'static str,
    /// SPARQL text.
    pub sparql: String,
    /// `GET` request target (path + percent-encoded query string).
    pub target: String,
}

/// One part of a step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Part {
    /// A SPARQL Protocol request for pool query `n`.
    Query(usize),
    /// The SDL tiles covering viewport `n` at month index `time_idx`.
    Tiles { viewport: usize, time_idx: usize },
}

/// One operation of the load: what a user action triggers.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub parts: Vec<Part>,
    /// Simulated time the user paused before this step (obda only).
    pub gap_ms: u64,
}

/// Everything one run feeds the program.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Vector tables with their GeoTriples mapping documents.
    pub tables: Vec<(TabularSource, &'static str)>,
    /// The LAI product (obda only).
    pub lai: Option<Dataset>,
    pub queries: Vec<PoolQuery>,
    pub viewports: Vec<Envelope>,
    /// The step schedule the load generator cycles through.
    pub steps: Vec<Step>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let resolution = match workload {
            Workload::ObdaViewport => LAI_RESOLUTION,
            // `store_geographica` does not read the grid; keep it tiny.
            Workload::StoreGeographica => 2,
        };
        let fixture = ParisFixture::generate(WORLD_SEED, WORLD_CELLS, resolution);
        let tables = vector_tables(&fixture);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_b0a7_d00d_f00d);
        let mut inputs = Inputs {
            workload,
            seed,
            tables,
            lai: None,
            queries: Vec::new(),
            viewports: Vec::new(),
            steps: Vec::new(),
        };
        match workload {
            Workload::StoreGeographica => geographica(&mut inputs, &mut rng),
            Workload::ObdaViewport => {
                let mut lai = fixture.lai;
                lai.name = LAI_DATASET.into();
                inputs.lai = Some(lai);
                viewport(&mut inputs, &mut rng);
            }
        }
        inputs
    }

    /// The distinct classes of the pool, in first-seen order.
    pub fn classes(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for q in &self.queries {
            if !out.contains(&q.class) {
                out.push(q.class);
            }
        }
        out
    }

    /// Order-sensitive digest of every generated input: tables, grid,
    /// query pool and schedule. A change to the generators shows up as a
    /// changed digest, never as a silently shifted baseline.
    pub fn digest(&self) -> u64 {
        let mut h = crate::check::Hasher::new();
        for (table, doc) in &self.tables {
            h.write_str(&table.name);
            h.write_str(doc);
            for row in &table.rows {
                h.write_str(&format!("{row:?}"));
            }
        }
        if let Some(lai) = &self.lai {
            for var in ["time", "lat", "lon", "LAI"] {
                let v = lai.variable(var).expect("LAI grid variables");
                for x in v.data.data() {
                    h.write_u64(x.to_bits());
                }
            }
        }
        for q in &self.queries {
            h.write_str(q.class);
            h.write_str(&q.sparql);
        }
        for v in &self.viewports {
            for x in [v.min_x, v.min_y, v.max_x, v.max_y] {
                h.write_u64(x.to_bits());
            }
        }
        for s in &self.steps {
            h.write_str(&format!("{s:?}"));
        }
        h.finish()
    }

    /// Offsets (seconds from the start of the open loop) of the first
    /// `n` arrivals at `rate` per second: a seeded Poisson process, the
    /// arrivals of independent users.
    pub fn arrivals(&self, rate: f64, n: usize) -> Vec<f64> {
        applab_bench::poisson_arrivals(self.seed ^ 0xa771_4a15, n, 1.0 / rate)
    }

    fn push_query(&mut self, class: &'static str, sparql: String) -> usize {
        let endpoint = self.workload.endpoint();
        self.queries.push(PoolQuery {
            class,
            target: format!("/sparql/{endpoint}?query={}", percent_encode(&sparql)),
            sparql,
        });
        self.queries.len() - 1
    }
}

fn vector_tables(fixture: &ParisFixture) -> Vec<(TabularSource, &'static str)> {
    vec![
        (fixture.world.osm_table(), mappings::OSM_MAPPING),
        (fixture.world.gadm_table(), mappings::GADM_MAPPING),
        (fixture.world.corine_table(), mappings::CORINE_MAPPING),
        (
            fixture.world.urban_atlas_table(),
            mappings::URBAN_ATLAS_MAPPING,
        ),
    ]
}

fn wkt_rect(e: &Envelope) -> String {
    format!(
        "POLYGON (({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))",
        x0 = e.min_x,
        y0 = e.min_y,
        x1 = e.max_x,
        y1 = e.max_y
    )
}

/// A probe rectangle of the given size inside the Paris extent, rounded
/// to 1e-4 degrees so the text stays short. The positions it may take
/// are cut into four quadrants; probe `i` lies at a seeded point of the
/// central half of quadrant `i % 4`, so every seed's probes spread over
/// the city alike (a class's cost follows where its probe lies).
fn probe(rng: &mut StdRng, i: usize, w: f64, h: f64) -> Envelope {
    let ext = applab_data::paris::paris_extent();
    let round = |v: f64| (v * 1e4).round() / 1e4;
    let at = |lo: f64, span: f64, half: usize, rng: &mut StdRng| {
        lo + span / 2.0 * (half as f64 + rng.gen_range(0.25..0.75))
    };
    let x = round(at(ext.min_x, ext.width() - w, i % 2, rng));
    let y = round(at(ext.min_y, ext.height() - h, i / 2 % 2, rng));
    Envelope::new(x, y, round(x + w), round(y + h))
}

/// Probe variants per selection class.
const PROBES_PER_CLASS: usize = 4;
/// Laps of the seven classes in the schedule (cycled by the load).
const GEOGRAPHICA_LAPS: usize = 64;

fn geographica(inputs: &mut Inputs, rng: &mut StdRng) {
    // Class → pool indices of its variants.
    let mut classes: Vec<Vec<usize>> = Vec::new();
    classes.push(vec![inputs.push_query(
        "NonTopological_Area",
        "SELECT ?a (geof:area(?wkt) AS ?area) WHERE { ?a a clc:CorineArea ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt }".into(),
    )]);
    classes.push(vec![inputs.push_query(
        "NonTopological_Envelope",
        "SELECT ?a (geof:envelope(?wkt) AS ?env) WHERE { ?a a ua:UrbanAtlasArea ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt }".into(),
    )]);
    // Probe sizes are fixed and only their positions vary with the seed
    // (see `probe`): the work per class does not swing with the seed.
    let small: Vec<usize> = (0..PROBES_PER_CLASS)
        .map(|i| {
            let p = wkt_rect(&probe(rng, i, 0.08, 0.06));
            inputs.push_query(
                "Selection_Intersects_Small",
                format!("SELECT ?a WHERE {{ ?a a clc:CorineArea ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(geof:sfIntersects(?wkt, \"{p}\"^^geo:wktLiteral)) }}"),
            )
        })
        .collect();
    classes.push(small);
    let large: Vec<usize> = (0..PROBES_PER_CLASS)
        .map(|i| {
            let p = wkt_rect(&probe(rng, i, 0.4, 0.2));
            inputs.push_query(
                "Selection_Intersects_Large",
                format!("SELECT ?a WHERE {{ ?a a clc:CorineArea ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(geof:sfIntersects(?wkt, \"{p}\"^^geo:wktLiteral)) }}"),
            )
        })
        .collect();
    classes.push(large);
    let within: Vec<usize> = (0..PROBES_PER_CLASS)
        .map(|i| {
            let p = wkt_rect(&probe(rng, i, 0.4, 0.2));
            inputs.push_query(
                "Selection_Within_Attribute",
                format!("SELECT ?a ?p WHERE {{ ?a a ua:UrbanAtlasArea ; ua:hasPopulation ?p ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(?p > 5000) FILTER(geof:sfWithin(?wkt, \"{p}\"^^geo:wktLiteral)) }}"),
            )
        })
        .collect();
    classes.push(within);
    classes.push(vec![inputs.push_query(
        "Join_Parks_LandCover",
        "SELECT ?park ?area WHERE { ?park osm:poiType osm:park ; geo:hasGeometry ?pg . ?pg geo:asWKT ?pwkt . ?area a clc:CorineArea ; clc:hasCorineValue clc:GreenUrbanAreas ; geo:hasGeometry ?ag . ?ag geo:asWKT ?awkt . FILTER(geof:sfIntersects(?pwkt, ?awkt)) }".into(),
    )]);
    classes.push(vec![inputs.push_query(
        "Aggregation_CountPerClass",
        "SELECT ?class (COUNT(?a) AS ?n) WHERE { ?a a clc:CorineArea ; clc:hasCorineValue ?class } GROUP BY ?class".into(),
    )]);
    // Each lap runs every class once, in a seeded order, and the probe
    // variants take turns: the mix of work is the same for every seed,
    // only the order and the probe positions vary. (The median latency
    // lies inside one class, so drawing variants at random moved it with
    // the seed.)
    for lap in 0..GEOGRAPHICA_LAPS {
        let mut order: Vec<usize> = (0..classes.len()).collect();
        shuffle(&mut order, rng);
        for c in order {
            let variants = &classes[c];
            let q = variants[lap % variants.len()];
            inputs.steps.push(Step {
                parts: vec![Part::Query(q)],
                gap_ms: 0,
            });
        }
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// The pan/zoom trace: `SESSIONS` user sessions of `SESSION_STEPS`
/// steps. Every session has the same zoom pattern, so the mix of
/// viewport sizes is the same for every seed; where a session starts and
/// how it pans vary.
const SESSIONS: usize = 16;
const SESSION_STEPS: usize = 32;

/// One session: starts near the centre of Paris, pans by up to 30% of
/// the viewport per step, and spends a quarter of its steps zoomed in
/// (×0.7) and a quarter zoomed out (×1.4). The viewport stays inside the
/// region the LAI grid covers.
fn session(rng: &mut StdRng) -> Vec<Envelope> {
    let ext = applab_data::paris::paris_extent();
    let mut x: f64 = 2.3 + rng.gen_range(-0.1..0.1);
    let mut y: f64 = 48.85 + rng.gen_range(-0.05..0.05);
    (0..SESSION_STEPS)
        .map(|i| {
            let zoom: f64 = match (i / 8) % 4 {
                1 => 0.7,
                3 => 1.4,
                _ => 1.0,
            };
            let (hw, hh) = (0.12 * zoom, 0.08 * zoom);
            x = (x + rng.gen_range(-0.3f64..0.3) * hw).clamp(ext.min_x + hw, ext.max_x - hw);
            y = (y + rng.gen_range(-0.3f64..0.3) * hh).clamp(ext.min_y + hh, ext.max_y - hh);
            Envelope::new(x - hw, y - hh, x + hw, y + hh)
        })
        .collect()
}

/// The Bois de Boulogne outline the app draws under the LAI layer.
pub const BOIS_OUTLINE: &str = "SELECT ?wkt WHERE { ?park osm:hasName \"Bois de Boulogne\" ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt }";

/// Listing 1 of the paper: LAI observations over the Bois de Boulogne.
pub const LISTING1: &str = "SELECT DISTINCT ?geoA ?geoB ?lai WHERE { ?areaA osm:poiType osm:park . ?areaA geo:hasGeometry ?geomA . ?geomA geo:asWKT ?geoA . ?areaA osm:hasName \"Bois de Boulogne\" . ?areaB lai:hasLai ?lai . ?areaB geo:hasGeometry ?geomB . ?geomB geo:asWKT ?geoB . FILTER(geof:sfIntersects(?geoA, ?geoB)) }";

fn viewport(inputs: &mut Inputs, rng: &mut StdRng) {
    let times: Vec<f64> = inputs
        .lai
        .as_ref()
        .expect("obda inputs carry the grid")
        .variable("time")
        .expect("time axis")
        .data
        .data()
        .to_vec();
    for _ in 0..SESSIONS {
        let s = session(rng);
        inputs.viewports.extend(s);
    }
    let steps = inputs.viewports.len();
    let gaps =
        applab_bench::poisson_arrivals(rng.gen_range(0..u64::MAX), steps, MEAN_STEP_GAP_SECS);
    let listing1 = inputs.push_query("Listing1_Bois", LISTING1.to_string());
    let outline = inputs.push_query("Outline_Bois", BOIS_OUTLINE.to_string());
    let mut month = rng.gen_range(0..times.len());
    let mut prev = 0.0;
    for (i, (viewport, at)) in inputs.viewports.clone().iter().zip(gaps).enumerate() {
        // The user moves the time slider now and then.
        if rng.gen_bool(0.125) {
            month = rng.gen_range(0..times.len());
        }
        let ts = applab_rdf::datetime::format_datetime(times[month] as i64);
        let sparql = format!(
            "SELECT ?o ?lai WHERE {{ ?o lai:hasLai ?lai ; time:hasTime ?t ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(?t = \"{ts}\"^^xsd:dateTime) FILTER(geof:sfIntersects(?wkt, \"{}\"^^geo:wktLiteral)) }}",
            wkt_rect(viewport)
        );
        let q = inputs.push_query("Viewport_LAI", sparql);
        let mut parts = vec![Part::Query(q)];
        if i % EXTRA_EVERY == LISTING1_AT {
            parts.push(Part::Query(listing1));
        }
        if i % EXTRA_EVERY == OUTLINE_AT {
            parts.push(Part::Query(outline));
        }
        parts.push(Part::Tiles {
            viewport: i,
            time_idx: month,
        });
        inputs.steps.push(Step {
            parts,
            gap_ms: ((at - prev) * 1000.0).round() as u64,
        });
        prev = at;
    }
}

/// The grid as a plain table of `(id, LAI, ts, loc)` rows, unrolled
/// straight from the generated dataset (not through DAP or the `opendap`
/// virtual table): the input of the reference store that checks the
/// OBDA answers. Rows follow the paper's Listing 2 schema, `LAI > 0`.
pub fn lai_table(lai: &Dataset) -> TabularSource {
    use applab_geotriples::source::{Row, Value};
    let grid = lai.variable("LAI").expect("LAI variable");
    let axis = |name: &str| lai.variable(name).expect("grid axis").data.data().to_vec();
    let (times, lats, lons) = (axis("time"), axis("lat"), axis("lon"));
    let mut rows = Vec::new();
    for (ti, &t) in times.iter().enumerate() {
        let epoch = t as i64;
        for (la, &lat) in lats.iter().enumerate() {
            for (lo, &lon) in lons.iter().enumerate() {
                let v = grid.data.get(&[ti, la, lo]).expect("in bounds");
                if v.is_nan() || v <= 0.0 {
                    continue;
                }
                let mut row = Row::new();
                row.insert(
                    "id".into(),
                    Value::Text(format!("obs_{lon}_{lat}_{epoch}").replace(['.', '-'], "m")),
                );
                row.insert("LAI".into(), Value::Number(v));
                row.insert(
                    "ts".into(),
                    Value::Text(applab_rdf::datetime::format_datetime(epoch)),
                );
                row.insert(
                    "loc".into(),
                    Value::Geometry(applab_geo::Geometry::point(lon, lat)),
                );
                rows.push(row);
            }
        }
    }
    TabularSource {
        name: "lai_obs".into(),
        rows,
    }
}

/// Listing 2's target over the plain [`lai_table`].
pub fn lai_table_mapping() -> String {
    let listing2 = mappings::opendap_lai_mapping(LAI_DATASET, LAI_WINDOW_MINUTES);
    let target = listing2
        .split("\nsource ")
        .next()
        .expect("mapping has a target");
    format!("{target}\nsource SELECT * FROM lai_obs\n")
}
