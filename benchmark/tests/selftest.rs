//! Self-tests of the benchmark: inputs are a pure function of the seed,
//! and a smoke-size run of every workload passes its answer checks,
//! apart from the mismatches the known POI-id defect explains.

use applab_benchmark::check::Reference;
use applab_benchmark::inputs::{lai_table, lai_table_mapping, Inputs, Workload};
use applab_benchmark::run;

fn reference(inputs: &Inputs) -> Reference {
    let mut tables: Vec<_> = inputs
        .tables
        .iter()
        .map(|(t, d)| (t.clone(), d.to_string()))
        .collect();
    if let Some(lai) = &inputs.lai {
        tables.push((lai_table(lai), lai_table_mapping()));
    }
    Reference::build(&tables)
}

#[test]
fn same_seed_same_inputs() {
    for w in Workload::ALL {
        let a = Inputs::generate(w, 7);
        let b = Inputs::generate(w, 7);
        assert_eq!(a.digest(), b.digest(), "{}", w.name());
        let sparql = |i: &Inputs| {
            i.queries
                .iter()
                .map(|q| q.sparql.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(sparql(&a), sparql(&b));
        assert_eq!(a.steps, b.steps);
        let c = Inputs::generate(w, 8);
        assert_ne!(sparql(&a), sparql(&c), "{}: the seed must matter", w.name());
        assert_ne!(a.digest(), c.digest(), "{}", w.name());
    }
}

#[test]
fn same_seed_same_row_counts() {
    for w in Workload::ALL {
        let a = Inputs::generate(w, 3);
        let b = Inputs::generate(w, 3);
        let (ra, rb) = (reference(&a), reference(&b));
        // The first pool query of every class.
        let classes = a.classes();
        assert_eq!(classes, b.classes(), "{}", w.name());
        for class in classes {
            let q = a.queries.iter().position(|q| q.class == class).unwrap();
            let (x, y) = (
                ra.answer(&a.queries[q].sparql).unwrap(),
                rb.answer(&b.queries[q].sparql).unwrap(),
            );
            assert_eq!(x, y, "{}: {}", w.name(), class);
        }
    }
}

#[test]
fn same_seed_same_dap_round_trips() {
    let inputs = Inputs::generate(Workload::ObdaViewport, 5);
    let a = run::dap_replay(&inputs, 24);
    let b = run::dap_replay(&inputs, 24);
    assert_eq!(a.parts, b.parts);
    assert!(a.parts.iter().any(|p| p.1 > 0), "the replay must reach DAP");
}

fn smoke(w: Workload) -> run::RunOutput {
    let inputs = Inputs::generate(w, 1);
    run::untraced(&inputs, 1.0)
}

#[test]
fn smoke_store_geographica() {
    let out = smoke(Workload::StoreGeographica);
    assert!(out.correct, "{:?}", out.notes);
    assert_eq!(out.failed, 0, "{:?}", out.notes);
}

/// The known defect must show: the Bois de Boulogne outline differs
/// between the OBDA endpoint and the store-built reference, every such
/// response counts as failed, and the defect explains every mismatch.
/// A second run of the seed runs the same operations and gets the same
/// wrong answers.
#[test]
fn smoke_obda_viewport_shows_the_known_defect() {
    let out = smoke(Workload::ObdaViewport);
    assert!(out.correct, "{:?}", out.notes);
    assert!(out.failed > 0, "the POI-id collision must show");
    let again = smoke(Workload::ObdaViewport);
    assert_eq!((out.attempted, out.failed), (again.attempted, again.failed));
    assert!(
        out.notes
            .iter()
            .any(|n| n.contains("Outline_Bois") && n.contains("\"known_defect\": true")),
        "{:?}",
        out.notes
    );
}
