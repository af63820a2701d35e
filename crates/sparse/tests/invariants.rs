//! Every named CSR invariant in [`CHECKED_INVARIANTS`] is enforced: one
//! malformed raw-parts quadruple per invariant, each of which
//! `CsrMatrix::from_raw_parts` must reject with that invariant's reason.
//!
//! [`CHECKED_INVARIANTS`]: idgnn_sparse::CHECKED_INVARIANTS

/// One malformed raw-parts quadruple breaking exactly the named invariant,
/// plus the substring its rejection message must carry.
struct Malformed {
    name: &'static str,
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f32>,
    expect: &'static str,
}

#[test]
fn every_checked_invariant_is_rejected_at_construction() {
    use idgnn_sparse::CsrMatrix;

    // One case per named invariant, in CHECKED_INVARIANTS order; each must
    // be rejected with the expected reason so the names stay tied to real
    // enforcement, not just a list.
    let cases = [
        Malformed {
            name: "indptr-len",
            rows: 2,
            cols: 2,
            indptr: vec![0, 1],
            indices: vec![0],
            values: vec![1.0],
            expect: "indptr length",
        },
        Malformed {
            name: "row-ptr-monotone",
            rows: 2,
            cols: 2,
            indptr: vec![0, 2, 1],
            indices: vec![0, 1],
            values: vec![1.0, 2.0],
            expect: "not monotone",
        },
        Malformed {
            name: "len-consistent",
            rows: 1,
            cols: 2,
            indptr: vec![0, 2],
            indices: vec![0],
            values: vec![1.0],
            expect: "indices/values length",
        },
        Malformed {
            name: "col-sorted-unique",
            rows: 1,
            cols: 4,
            indptr: vec![0, 2],
            indices: vec![2, 1],
            values: vec![1.0, 2.0],
            expect: "not strictly increasing",
        },
        Malformed {
            name: "col-in-bounds",
            rows: 1,
            cols: 2,
            indptr: vec![0, 1],
            indices: vec![5],
            values: vec![1.0],
            expect: ">= cols",
        },
    ];
    assert_eq!(cases.len(), idgnn_sparse::CHECKED_INVARIANTS.len());
    for (i, c) in cases.into_iter().enumerate() {
        assert_eq!(
            c.name, idgnn_sparse::CHECKED_INVARIANTS[i],
            "case table must follow CHECKED_INVARIANTS order"
        );
        let err = CsrMatrix::from_raw_parts(c.rows, c.cols, c.indptr, c.indices, c.values)
            .expect_err("malformed parts must be rejected")
            .to_string();
        assert!(err.contains(c.expect), "invariant `{}`: unexpected reason `{err}`", c.name);
    }
}
