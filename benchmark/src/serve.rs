//! Set-up of the program under test: generated tables → workflow →
//! `ApplabService` → `HttpServer`, plus the benchmark-owned decorators
//! the traced run wraps around the endpoint and the DAP transport.

use crate::inputs::{Inputs, Workload, LAI_DATASET, LAI_WINDOW_MINUTES, TILE_ZOOM};
use crate::trace::{parse_tag, Tracer};
use applab_bench::httpload::HttpClient;
use applab_core::VirtualWorkflowBuilder;
use applab_core::{CoreError, Explain, MaterializedWorkflow, QueryEndpoint, VirtualWorkflow};
use applab_dap::clock::ManualClock;
use applab_dap::transport::{Local, Transport};
use applab_data::mappings;
use applab_geotriples::{parse_mappings, process_parallel};
use applab_http::{HttpConfig, HttpServer};
use applab_sdl::TiledFetcher;
use applab_service::{ApplabService, ServiceConfig};
use applab_sparql::{EvalOptions, QueryResults};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load connections of both phases (the host has 2 vCPUs).
pub const LOAD_CONNECTIONS: usize = 2;

/// Server configuration: defaults everywhere, except that the worker
/// count is pinned so it always exceeds the load connections. An
/// `HttpServer` worker owns a connection for its whole keep-alive life,
/// so an idle extra connection must never be able to hold a worker the
/// load needs.
pub fn http_config() -> HttpConfig {
    HttpConfig {
        workers: LOAD_CONNECTIONS + 2,
        ..HttpConfig::default()
    }
}

pub fn service_config() -> ServiceConfig {
    ServiceConfig::default()
}

/// A DAP transport decorator counting round trips and payload bytes.
#[derive(Default)]
pub struct CountingTransport {
    inner: Local,
    trips: AtomicU64,
    bytes: AtomicU64,
}

impl CountingTransport {
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl Transport for CountingTransport {
    fn charge(&self, bytes: usize) {
        self.inner.charge(bytes);
        self.trips.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn total_charged(&self) -> Duration {
        self.inner.total_charged()
    }

    fn round_trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }
}

/// The workflow behind the served endpoint.
#[derive(Clone)]
pub enum Backend {
    Store(Arc<MaterializedWorkflow>),
    Obda(Arc<VirtualWorkflow>),
}

/// A `QueryEndpoint` decorator recording spans around the calls into the
/// SPARQL layer (store) or the OBDA workflow, when the tracer is on and
/// the query carries a request tag.
pub struct TracedEndpoint {
    backend: Backend,
    tracer: Arc<Tracer>,
}

impl TracedEndpoint {
    fn untraced(&self, sparql: &str, options: &EvalOptions) -> Result<QueryResults, CoreError> {
        match &self.backend {
            Backend::Store(wf) => wf.query_with(sparql, options),
            Backend::Obda(wf) => wf.query_with(sparql, options),
        }
    }
}

impl QueryEndpoint for TracedEndpoint {
    fn query_with(&self, sparql: &str, options: &EvalOptions) -> Result<QueryResults, CoreError> {
        let tag = parse_tag(sparql).filter(|_| self.tracer.enabled());
        let Some((rid, parent)) = tag else {
            return self.untraced(sparql, options);
        };
        let t = &self.tracer;
        let id = t.next_id();
        let start = Instant::now();
        let result = match &self.backend {
            Backend::Store(wf) => {
                // `MaterializedWorkflow::query_with` is exactly these two
                // calls; making them here times each layer on its own.
                let parsed = applab_sparql::parse_query(sparql);
                let parsed_at = Instant::now();
                t.record(t.next_id(), id, rid, "sparql.parse", start, parsed_at);
                match parsed {
                    Ok(q) => {
                        let r = applab_sparql::evaluate_with(wf.store(), &q, options);
                        t.record(
                            t.next_id(),
                            id,
                            rid,
                            "sparql.eval",
                            parsed_at,
                            Instant::now(),
                        );
                        r.map_err(CoreError::from)
                    }
                    Err(e) => Err(CoreError::from(e)),
                }
            }
            Backend::Obda(wf) => {
                let r = wf.query_with(sparql, options);
                t.record(t.next_id(), id, rid, "obda.query", start, Instant::now());
                r
            }
        };
        t.record(id, parent, rid, "endpoint.query", start, Instant::now());
        result
    }

    fn query_explained(&self, sparql: &str) -> Result<Explain, CoreError> {
        match &self.backend {
            Backend::Store(wf) => wf.query_explained(sparql),
            Backend::Obda(wf) => wf.query_explained(sparql),
        }
    }

    fn backend(&self) -> &'static str {
        match &self.backend {
            Backend::Store(_) => "store",
            Backend::Obda(_) => "obda",
        }
    }
}

/// The OBDA side pieces the load generator drives in-process.
pub struct ObdaSide {
    pub clock: Arc<ManualClock>,
    pub transport: Arc<CountingTransport>,
    pub tiles: TiledFetcher,
}

/// A served program.
pub struct Served {
    pub http: HttpServer,
    pub service: Arc<ApplabService>,
    pub backend: Backend,
    pub obda: Option<ObdaSide>,
}

impl Served {
    pub fn addr(&self) -> SocketAddr {
        self.http.local_addr()
    }
}

/// Set-up durations of one build, seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// Generated tables in hand → server ready.
    pub total: f64,
    /// GeoTriples transform (traced store set-up only).
    pub transform: f64,
    /// Store insert + seal (traced store set-up only).
    pub load: f64,
    /// `VirtualWorkflowBuilder::seal` (obda only).
    pub seal: f64,
}

/// Build and serve the program from the generated inputs. With a tracer,
/// the endpoint is wrapped in [`TracedEndpoint`] and the store is loaded
/// through separate transform and load calls so each is timed; without
/// one, the store is loaded through `MaterializedWorkflow::load_table`.
pub fn setup(inputs: &Inputs, tracer: Option<&Arc<Tracer>>) -> (Served, SetupTimes) {
    let mut times = SetupTimes::default();
    // The OBDA builder takes owned tables and grid: copy them before the
    // clock starts, since set-up is timed from the tables in hand.
    let mut owned = match inputs.workload {
        Workload::ObdaViewport => Some((
            inputs.lai.clone().expect("obda inputs carry the grid"),
            inputs
                .tables
                .iter()
                .map(|(t, d)| (t.clone(), *d))
                .collect::<Vec<_>>(),
        )),
        _ => None,
    };
    let start = Instant::now();
    let (backend, obda) = match inputs.workload {
        Workload::StoreGeographica => {
            let mut wf = MaterializedWorkflow::new();
            for (table, doc) in &inputs.tables {
                if tracer.is_some() {
                    for mapping in parse_mappings(doc).expect("static mapping") {
                        let t0 = Instant::now();
                        // Same worker count `load_table` uses by default.
                        let graph = process_parallel(&mapping, table, 4);
                        let t1 = Instant::now();
                        wf.load_graph(&graph);
                        times.transform += (t1 - t0).as_secs_f64();
                        times.load += t1.elapsed().as_secs_f64();
                    }
                } else {
                    wf.load_table(table, doc).expect("generated tables load");
                }
            }
            (Backend::Store(Arc::new(wf)), None)
        }
        Workload::ObdaViewport => {
            let clock = ManualClock::new();
            let transport = Arc::new(CountingTransport::default());
            let mut b =
                VirtualWorkflowBuilder::with_transport_and_clock(transport.clone(), clock.clone());
            let (lai, tables) = owned.take().expect("copied above");
            b.publish(lai);
            b.add_opendap(
                LAI_DATASET,
                "LAI",
                Duration::from_secs(LAI_WINDOW_MINUTES * 60),
            );
            b.add_mappings(&mappings::opendap_lai_mapping(
                LAI_DATASET,
                LAI_WINDOW_MINUTES,
            ))
            .expect("Listing 2 mapping");
            for (table, doc) in tables {
                b.add_table(table);
                b.add_mappings(doc).expect("static mapping");
            }
            let t0 = Instant::now();
            let wf = Arc::new(b.seal().expect("obda workflow seals"));
            times.seal = t0.elapsed().as_secs_f64();
            let tiles = TiledFetcher::open(
                wf.client().clone(),
                LAI_DATASET,
                "LAI",
                TILE_ZOOM,
                clock.clone(),
            )
            .expect("tile fetcher opens");
            (
                Backend::Obda(wf),
                Some(ObdaSide {
                    clock,
                    transport,
                    tiles,
                }),
            )
        }
    };
    let endpoint: Arc<dyn QueryEndpoint> = match (tracer, &backend) {
        (Some(t), b) => Arc::new(TracedEndpoint {
            backend: b.clone(),
            tracer: t.clone(),
        }),
        (None, Backend::Store(wf)) => wf.clone(),
        (None, Backend::Obda(wf)) => wf.clone(),
    };
    let service = Arc::new(
        ApplabService::new(service_config()).with_endpoint(inputs.workload.endpoint(), endpoint),
    );
    let http = HttpServer::bind("127.0.0.1:0", service.clone(), http_config())
        .expect("bind the SPARQL Protocol server");
    wait_ready(http.local_addr());
    times.total = start.elapsed().as_secs_f64();
    (
        Served {
            http,
            service,
            backend,
            obda,
        },
        times,
    )
}

/// Block until `/readyz` answers 200, over a connection that is closed
/// again before the load starts.
fn wait_ready(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut c) = HttpClient::connect(addr) {
            if c.get("/readyz").map(|r| r.status == 200).unwrap_or(false) {
                return;
            }
        }
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(1));
    }
}
