//! Answer checks that do not trust the code being timed.
//!
//! Every response body is reduced to an order-independent digest of its
//! solution multiset and compared with the digest of the answer
//! `applab_sparql::reference` (the binding-at-a-time oracle) computes
//! over a store built separately from the same generated tables. The
//! served answer and the expected one meet only as digests.

use applab_geotriples::{parse_mappings, process, TabularSource, Value};
use applab_rdf::{Graph, Term};
use applab_sparql::QueryResults;
use applab_store::SpatioTemporalStore;

/// A small non-cryptographic hash (FNV-1a over 8-byte words): enough to
/// tell answers and inputs apart, cheap enough to run on every response.
pub struct Hasher(u64);

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    pub fn new() -> Hasher {
        Hasher(0xcbf2_9ce4_8422_2325)
    }

    pub fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        self.0 ^= self.0 >> 29;
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.write_u64(u64::from_le_bytes(tail) ^ ((bytes.len() as u64) << 56));
    }

    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^ (x >> 33)
    }
}

/// Hash of a raw response body: identical bytes need not be parsed twice.
pub fn body_hash(body: &[u8]) -> u64 {
    let mut h = Hasher::new();
    h.write_bytes(body);
    h.finish()
}

/// Order-independent digest of a result: the row count plus two sums of
/// per-row hashes (a multiset of rows maps to one digest whatever order
/// the rows arrive in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Answer {
    pub rows: u64,
    sum: u64,
    sum2: u64,
}

fn term_text(t: &Term) -> String {
    match t {
        // Blank node labels are arbitrary per result.
        Term::Blank(_) => "_:".to_string(),
        other => other.to_string(),
    }
}

impl Answer {
    pub fn of(results: &QueryResults) -> Answer {
        match results {
            QueryResults::Boolean(b) => {
                let mut h = Hasher::new();
                h.write_str(if *b { "true" } else { "false" });
                Answer {
                    rows: 1,
                    sum: h.finish(),
                    sum2: !h.finish(),
                }
            }
            QueryResults::Solutions { variables, rows } => {
                let mut order: Vec<usize> = (0..variables.len()).collect();
                order.sort_by(|&a, &b| variables[a].cmp(&variables[b]));
                let (mut sum, mut sum2) = (0u64, 0u64);
                for row in rows {
                    let mut h = Hasher::new();
                    for &i in &order {
                        if let Some(Some(term)) = row.values.get(i) {
                            h.write_str(&variables[i]);
                            h.write_str(&term_text(term));
                        }
                    }
                    let x = h.finish();
                    sum = sum.wrapping_add(x);
                    sum2 = sum2.wrapping_add(x.rotate_left(17).wrapping_mul(x | 1));
                }
                Answer {
                    rows: rows.len() as u64,
                    sum,
                    sum2,
                }
            }
            QueryResults::Graph(g) => Answer {
                rows: g.len() as u64,
                sum: 0,
                sum2: 0,
            },
        }
    }

    /// Digest of a W3C SPARQL Results JSON body.
    pub fn of_json(body: &[u8]) -> Result<Answer, String> {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let results = QueryResults::from_json(text).map_err(|e| e.0)?;
        Ok(Answer::of(&results))
    }
}

/// The oracle: the reference evaluator over a store built from the
/// generated tables with GeoTriples' sequential transform.
pub struct Reference {
    store: SpatioTemporalStore,
}

impl Reference {
    pub fn build(tables: &[(TabularSource, String)]) -> Reference {
        let mut graph = Graph::new();
        for (table, doc) in tables {
            for mapping in parse_mappings(doc).expect("benchmark mapping documents parse") {
                graph.extend_from(&process(&mapping, table));
            }
        }
        Reference {
            store: SpatioTemporalStore::from_graph(&graph),
        }
    }

    pub fn answer(&self, sparql: &str) -> Result<Answer, String> {
        let q = applab_sparql::parse_query(sparql).map_err(|e| e.to_string())?;
        let r = applab_sparql::reference::evaluate(&self.store, &q).map_err(|e| e.to_string())?;
        Ok(Answer::of(&r))
    }
}

/// Known defect: `ParisFixture` gives the Bois de Boulogne POI the id
/// `pois.len()` after dropping overlapping parks, which repeats the id
/// of another POI. The store merges the two rows into one subject with
/// two names and two WKTs; the OBDA engine keeps them apart, so the two
/// backends disagree (e.g. on Listing 1).
///
/// Returns the OSM table with the collision repaired (the Bois gets a
/// fresh id), or `None` when the table has no colliding id. An answer
/// that differs from the reference over the generated tables but equals
/// the reference over the repaired ones is a mismatch this defect
/// explains; it still counts as failed.
pub fn repair_poi_ids(osm: &TabularSource) -> Option<TabularSource> {
    let id_of = |row: &applab_geotriples::Row| match row.get("id") {
        Some(Value::Number(n)) => *n as u64,
        _ => u64::MAX,
    };
    let is_bois = |row: &applab_geotriples::Row| matches!(row.get("name"), Some(Value::Text(n)) if n == "Bois de Boulogne");
    let bois = osm.rows.iter().position(is_bois)?;
    let bois_id = id_of(&osm.rows[bois]);
    let collides = osm
        .rows
        .iter()
        .enumerate()
        .any(|(i, r)| i != bois && id_of(r) == bois_id);
    if !collides {
        return None;
    }
    let fresh = osm.rows.iter().map(id_of).max().unwrap_or(0) + 1;
    let mut repaired = osm.clone();
    repaired.rows[bois].insert("id".into(), Value::Number(fresh as f64));
    Some(repaired)
}

/// Tallies of the answer checks of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Responses whose answer equals the reference answer.
    pub matched: u64,
    /// Responses whose answer differs from the reference answer.
    pub mismatched: u64,
    /// Of those, mismatches the known POI-id defect explains.
    pub known_defect: u64,
    /// Mismatches on a backend other than the reference's (the store).
    pub cross_backend: u64,
}

impl Verdict {
    /// True when every mismatch is explained by the known defect.
    pub fn correct(&self) -> bool {
        self.mismatched == self.known_defect
    }
}
