//! Edge-list I/O.
//!
//! Plain whitespace-separated text: one `src dst` pair per line. Lines
//! starting with `#` are comments. This is the format of the SNAP datasets the paper
//! uses, so real data can be dropped in when available.
//!
//! Two reading paths share one line parser:
//!
//! * [`read_edge_list`] — whole-file, builds a full [`Graph`].
//! * [`for_each_edge_chunked`] — streams the byte stream in bounded
//!   chunks with partial-line carry-over, feeding a sink per edge.
//!   [`read_edge_list_chunked`] (same `Graph`, bounded read buffer) and
//!   [`read_shard_slices`] (per-shard [`CsrSlice`]s for the sharded
//!   solve tier, no full graph ever materialized) are built on it.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};

use crate::csr::{CsrSlice, Graph, GraphBuilder, NodeId};

/// Parses one edge-list line: `None` for blanks and `#` comments,
/// `Some((u, v))` for an edge. `lineno` is 1-based and only used for
/// error messages, which are byte-identical between the whole-file and
/// chunked readers.
fn parse_edge_line(
    line: &str,
    lineno: usize,
    n: usize,
) -> std::io::Result<Option<(NodeId, NodeId)>> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let parse = |s: Option<&str>| -> std::io::Result<NodeId> {
        s.and_then(|x| x.parse().ok()).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed edge at line {lineno}"),
            )
        })
    };
    let u = parse(parts.next())?;
    let v = parse(parts.next())?;
    if (u as usize) >= n || (v as usize) >= n {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("node id out of range at line {lineno}"),
        ));
    }
    Ok(Some((u, v)))
}

/// Reads an edge list; node ids must be `< n`.
pub fn read_edge_list<R: Read>(reader: R, n: usize, directed: bool) -> std::io::Result<Graph> {
    let mut builder = GraphBuilder::new(n, directed);
    let reader = BufReader::new(reader);
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if let Some((u, v)) = parse_edge_line(&line, lineno + 1, n)? {
            builder.add_edge(u, v);
        }
    }
    Ok(builder.build())
}

/// Streams an edge list in chunks of at most `chunk_bytes` bytes,
/// carrying partial lines across chunk boundaries, and calls `sink` for
/// every parsed edge in file order. Skip rules, error messages, and
/// line numbering are identical to [`read_edge_list`]; a final line
/// without a trailing newline (a ragged last chunk) is parsed too.
///
/// Peak memory is `chunk_bytes` plus the longest single line —
/// independent of the file size — which is what lets the sharded tier
/// route a million-node graph's edges straight into per-shard slices.
pub fn for_each_edge_chunked<R: Read>(
    mut reader: R,
    n: usize,
    chunk_bytes: usize,
    mut sink: impl FnMut(NodeId, NodeId),
) -> std::io::Result<()> {
    let chunk_bytes = chunk_bytes.max(1);
    let mut chunk = vec![0u8; chunk_bytes];
    let mut carry: Vec<u8> = Vec::new();
    let mut lineno = 0usize;
    let emit = |bytes: &[u8], lineno: usize, sink: &mut dyn FnMut(NodeId, NodeId)| {
        let text = std::str::from_utf8(bytes).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        if let Some((u, v)) = parse_edge_line(text, lineno, n)? {
            sink(u, v);
        }
        Ok::<(), std::io::Error>(())
    };
    loop {
        let got = reader.read(&mut chunk)?;
        if got == 0 {
            break;
        }
        let data = &chunk[..got];
        let mut start = 0usize;
        while let Some(pos) = data[start..].iter().position(|&b| b == b'\n') {
            let end = start + pos;
            lineno += 1;
            if carry.is_empty() {
                emit(&data[start..end], lineno, &mut sink)?;
            } else {
                carry.extend_from_slice(&data[start..end]);
                emit(&carry, lineno, &mut sink)?;
                carry.clear();
            }
            start = end + 1;
        }
        carry.extend_from_slice(&data[start..]);
    }
    if !carry.is_empty() {
        lineno += 1;
        emit(&carry, lineno, &mut sink)?;
    }
    Ok(())
}

/// Chunk-loading counterpart of [`read_edge_list`]: same [`Graph`],
/// built through [`for_each_edge_chunked`] with a bounded read buffer.
pub fn read_edge_list_chunked<R: Read>(
    reader: R,
    n: usize,
    directed: bool,
    chunk_bytes: usize,
) -> std::io::Result<Graph> {
    let mut builder = GraphBuilder::new(n, directed);
    for_each_edge_chunked(reader, n, chunk_bytes, |u, v| {
        builder.add_edge(u, v);
    })?;
    Ok(builder.build())
}

/// Streams an edge list directly into per-shard [`CsrSlice`]s without
/// materializing the full [`Graph`].
///
/// `owner[v]` assigns node `v` to a shard in `0..num_shards` (the
/// sharded tier derives it from `shard_partition`); each arc is routed
/// to the shard owning its source — for undirected graphs both
/// orientations are routed, mirroring [`GraphBuilder::build`]'s
/// symmetrize-before-dedup. Every slice is bitwise equal to
/// [`Graph::slice_rows`] over the same nodes: self-loops dropped, rows
/// sorted and deduplicated, targets global.
///
/// # Panics
/// Panics if `num_shards == 0`, `owner.len() != n`, or an owner index
/// is `≥ num_shards`.
pub fn read_shard_slices<R: Read>(
    reader: R,
    n: usize,
    directed: bool,
    owner: &[u32],
    num_shards: usize,
    chunk_bytes: usize,
) -> std::io::Result<Vec<CsrSlice>> {
    assert!(num_shards >= 1, "num_shards must be >= 1");
    assert_eq!(owner.len(), n, "owner must assign every node");
    assert!(
        owner.iter().all(|&s| (s as usize) < num_shards),
        "owner index out of range"
    );
    let mut nodes: Vec<Vec<NodeId>> = vec![Vec::new(); num_shards];
    let mut local_of = vec![0u32; n];
    for v in 0..n {
        let s = owner[v] as usize;
        local_of[v] = nodes[s].len() as u32;
        nodes[s].push(v as NodeId);
    }
    let mut arcs: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); num_shards];
    for_each_edge_chunked(reader, n, chunk_bytes, |u, v| {
        if u == v {
            return; // GraphBuilder drops self-loops on add
        }
        arcs[owner[u as usize] as usize].push((local_of[u as usize], v));
        if !directed {
            arcs[owner[v as usize] as usize].push((local_of[v as usize], u));
        }
    })?;
    Ok(nodes
        .into_iter()
        .zip(arcs)
        .map(|(ns, ar)| CsrSlice::from_arcs(ns, ar))
        .collect())
}

/// Out-of-core counterpart of [`read_shard_slices`]: streams the edge
/// list once **per shard**, materializing only that shard's slice in
/// memory before spilling it to `dir` and dropping it — peak memory is
/// one shard's arcs plus the read buffer, never the whole partition.
///
/// `open` must return a fresh reader over the same byte stream on every
/// call (`num_shards` passes are made). Each spilled slice is bitwise
/// equal to the corresponding [`read_shard_slices`] slice: the per-shard
/// pass collects exactly the arcs routed to that shard, and
/// `CsrSlice::from_arcs` normalizes identically regardless of arrival
/// order.
///
/// # Panics
/// Panics if `num_shards == 0`, `owner.len() != n`, or an owner index
/// is `≥ num_shards` — the same contract as [`read_shard_slices`].
pub fn spill_shard_slices<R: Read>(
    mut open: impl FnMut() -> std::io::Result<R>,
    n: usize,
    directed: bool,
    owner: &[u32],
    num_shards: usize,
    chunk_bytes: usize,
    dir: &std::path::Path,
) -> Result<Vec<crate::csr::SpilledSlice>, crate::csr::SpillError> {
    assert!(num_shards >= 1, "num_shards must be >= 1");
    assert_eq!(owner.len(), n, "owner must assign every node");
    assert!(
        owner.iter().all(|&s| (s as usize) < num_shards),
        "owner index out of range"
    );
    // Shard-local ids, assigned in ascending global order — the same
    // numbering `read_shard_slices` uses.
    let mut nodes: Vec<Vec<NodeId>> = vec![Vec::new(); num_shards];
    let mut local_of = vec![0u32; n];
    for v in 0..n {
        let s = owner[v] as usize;
        local_of[v] = nodes[s].len() as u32;
        nodes[s].push(v as NodeId);
    }
    let mut spilled = Vec::with_capacity(num_shards);
    for (s, ns) in nodes.into_iter().enumerate() {
        let mut arcs: Vec<(u32, NodeId)> = Vec::new();
        for_each_edge_chunked(open()?, n, chunk_bytes, |u, v| {
            if u == v {
                return; // GraphBuilder drops self-loops on add
            }
            if owner[u as usize] as usize == s {
                arcs.push((local_of[u as usize], v));
            }
            if !directed && owner[v as usize] as usize == s {
                arcs.push((local_of[v as usize], u));
            }
        })?;
        let slice = CsrSlice::from_arcs(ns, arcs);
        spilled.push(slice.spill(dir)?);
    }
    Ok(spilled)
}

/// Writes an edge list (arcs for directed graphs; each undirected edge
/// once, with `src < dst`).
pub fn write_edge_list<W: Write>(graph: &Graph, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    for (u, v) in graph.arcs() {
        if graph.is_directed() || u < v {
            writeln!(w, "{u} {v}")?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_roundtrip() {
        let mut b = GraphBuilder::new(4, false);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 3);
        let g = b.build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..], 4, false).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        for v in 0..4 {
            assert_eq!(g.out_neighbors(v), g2.out_neighbors(v));
        }
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# comment\n\n0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes(), 3, true).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn malformed_edges_error() {
        assert!(read_edge_list("0 x\n".as_bytes(), 3, true).is_err());
        assert!(read_edge_list("0 9\n".as_bytes(), 3, true).is_err());
    }

    /// Chunked and whole-file reads must agree for every chunk size,
    /// including sizes that split lines mid-number and a file with no
    /// trailing newline.
    #[test]
    fn chunked_read_matches_whole_file_at_every_chunk_size() {
        let text = "# header\n0 1\n\n1 2\n2 3\n3 0\n0 2"; // ragged last line
        let whole = read_edge_list(text.as_bytes(), 4, false).unwrap();
        for chunk_bytes in 1..=text.len() + 3 {
            let chunked = read_edge_list_chunked(text.as_bytes(), 4, false, chunk_bytes).unwrap();
            assert_eq!(whole.num_arcs(), chunked.num_arcs(), "chunk {chunk_bytes}");
            for v in 0..4 {
                assert_eq!(
                    whole.out_neighbors(v),
                    chunked.out_neighbors(v),
                    "chunk {chunk_bytes}, node {v}"
                );
            }
        }
    }

    #[test]
    fn chunked_errors_carry_the_same_line_numbers() {
        let text = "0 1\n# fine\n0 x\n";
        let whole = read_edge_list(text.as_bytes(), 3, true).unwrap_err();
        let chunked = read_edge_list_chunked(text.as_bytes(), 3, true, 4).unwrap_err();
        assert_eq!(whole.to_string(), chunked.to_string());
        assert!(whole.to_string().contains("line 3"), "{whole}");

        let text = "0 1\n9 0\n";
        let whole = read_edge_list(text.as_bytes(), 3, true).unwrap_err();
        let chunked = read_edge_list_chunked(text.as_bytes(), 3, true, 2).unwrap_err();
        assert_eq!(whole.to_string(), chunked.to_string());
        assert!(
            whole.to_string().contains("out of range at line 2"),
            "{whole}"
        );
    }

    #[test]
    fn shard_slices_match_full_graph_rows() {
        let text = "0 1\n1 2\n2 3\n3 0\n1 1\n0 2\n0 1\n"; // dup + self-loop
        for directed in [false, true] {
            let whole = read_edge_list(text.as_bytes(), 4, directed).unwrap();
            let owner = [0u32, 1, 0, 1];
            let slices = read_shard_slices(text.as_bytes(), 4, directed, &owner, 2, 5).unwrap();
            assert_eq!(slices.len(), 2);
            assert_eq!(
                slices[0],
                whole.slice_rows(&[0, 2]),
                "directed = {directed}"
            );
            assert_eq!(
                slices[1],
                whole.slice_rows(&[1, 3]),
                "directed = {directed}"
            );
        }
    }

    #[test]
    fn spilled_shard_slices_match_in_core_slices() {
        let text = "0 1\n1 2\n2 3\n3 0\n1 1\n0 2\n0 1\n";
        let owner = [0u32, 1, 0, 1];
        let dir = std::env::temp_dir().join(format!("fair-submod-io-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for directed in [false, true] {
            let in_core = read_shard_slices(text.as_bytes(), 4, directed, &owner, 2, 5).unwrap();
            let spilled =
                spill_shard_slices(|| Ok(text.as_bytes()), 4, directed, &owner, 2, 5, &dir)
                    .unwrap();
            assert_eq!(spilled.len(), in_core.len());
            for (handle, expect) in spilled.iter().zip(&in_core) {
                assert_eq!(&handle.load().unwrap(), expect, "directed = {directed}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_shards_produce_empty_slices() {
        let text = "0 1\n";
        let owner = [0u32, 0, 0];
        let slices = read_shard_slices(text.as_bytes(), 3, false, &owner, 3, 64).unwrap();
        assert_eq!(slices[0].num_nodes(), 3);
        assert_eq!(slices[1].num_nodes(), 0);
        assert_eq!(slices[1].num_arcs(), 0);
        assert_eq!(slices[2].num_nodes(), 0);
    }
}
