"""Per-application semantics: each workload's traces must touch the data
structures its algorithm says it touches, with the sharing pattern that
drives its Fig 2 signature."""

from repro.gpu.trace import LINE_BYTES, Op, walk_bodies
from tests.conftest import access_lines, tiny_workload


def touched(body, array, op=None):
    """Cache lines of ``array`` referenced by ``body`` (optionally only by
    loads or stores). Every array starts on a line of its own
    (``AddressSpace.alloc`` aligns to 128 bytes), so its lines are the
    ones its byte range covers."""
    lo, hi = array.base // LINE_BYTES, -(-array.end // LINE_BYTES)
    lines = set()
    for access_op, access in access_lines(body):
        if op is None or access_op == op:
            lines.update(line for line in access if lo <= line < hi)
    return lines


def families(workload):
    """(parent body, [child bodies]) for every launching TB."""
    for body in walk_bodies(workload.kernel().bodies):
        children = [b for spec in body.launches() for b in spec.bodies]
        if children:
            yield body, children


class TestBFS:
    def test_children_gather_distances_and_store_updates(self):
        w = tiny_workload("bfs", "citation")
        some_store = False
        for _, children in families(w):
            for child in children:
                assert touched(child, w.dist, Op.LOAD), "child must gather dist"
                some_store |= bool(touched(child, w.dist, Op.STORE))
        assert some_store, "some child must write an improved distance"

    def test_parent_writes_descriptor_child_reads_it(self):
        w = tiny_workload("bfs", "citation")
        for parent, children in families(w):
            desc_written = touched(parent, w.desc, Op.STORE)
            assert desc_written
            for child in children:
                desc_read = touched(child, w.desc, Op.LOAD)
                assert desc_read & desc_written or desc_read
            break


class TestSSSP:
    def test_children_read_weights_alongside_columns(self):
        w = tiny_workload("sssp", "cage15")
        for _, children in families(w):
            for child in children:
                assert touched(child, w.weights, Op.LOAD)
                assert touched(child, w.col, Op.LOAD)
            break

    def test_parent_inspects_both_edge_arrays(self):
        w = tiny_workload("sssp", "cage15")
        for parent, _ in families(w):
            assert touched(parent, w.weights, Op.LOAD)
            assert touched(parent, w.col, Op.LOAD)
            break


class TestCLR:
    def test_child_writes_exactly_its_vertex_color(self):
        w = tiny_workload("clr", "graph500")
        for _, children in families(w):
            for child in children:
                stores = touched(child, w.colors, Op.STORE)
                assert len(stores) == 1  # one color cell per expansion
            break


class TestAMR:
    def test_children_reread_parent_block(self):
        w = tiny_workload("amr")
        for parent, children in families(w):
            parent_cells = touched(parent, w.cells, Op.LOAD)
            for child in children:
                child_cells = touched(child, w.cells, Op.LOAD)
                assert child_cells <= parent_cells, "child reads within its parent's block"

    def test_sibling_fine_regions_disjoint(self):
        w = tiny_workload("amr")
        for _, children in families(w):
            regions = [touched(c, w.fine, Op.STORE) for c in children]
            for i in range(len(regions)):
                for j in range(i + 1, len(regions)):
                    assert not (regions[i] & regions[j]), "fine outputs must be private"


class TestBHT:
    def test_children_rewalk_hot_tree_top(self):
        w = tiny_workload("bht")
        root_line = w.nodes.base // 128
        for _, children in families(w):
            for child in children:
                assert root_line in touched(child, w.nodes, Op.LOAD)
            break

    def test_children_reread_cell_points(self):
        w = tiny_workload("bht")
        for parent, children in families(w):
            parent_points = touched(parent, w.points, Op.LOAD)
            shared = False
            for child in children:
                shared |= bool(touched(child, w.points, Op.LOAD) & parent_points)
            assert shared
            break


class TestREGX:
    def test_children_walk_payload_and_table(self):
        w = tiny_workload("regx", "darpa")
        for _, children in families(w):
            for child in children:
                assert touched(child, w.payload, Op.LOAD)
                assert touched(child, w.table, Op.LOAD)
            break

    def test_parent_prefilters_with_table_head(self):
        w = tiny_workload("regx", "darpa")
        head_line = w.table.base // 128
        parent = w.kernel().bodies[0]
        assert head_line in touched(parent, w.table, Op.LOAD)


class TestPRE:
    def test_children_gather_item_vectors(self):
        w = tiny_workload("pre")
        for _, children in families(w):
            for child in children:
                assert touched(child, w.item_vecs, Op.LOAD)
                assert touched(child, w.scores, Op.STORE)
            break

    def test_child_rereads_parent_row(self):
        w = tiny_workload("pre")
        for parent, children in families(w):
            parent_rows = touched(parent, w.rated_items, Op.LOAD)
            for child in children:
                child_rows = touched(child, w.rated_items, Op.LOAD)
                assert child_rows & parent_rows
            break


class TestJOIN:
    def test_children_probe_parent_written_buckets(self):
        w = tiny_workload("join", "gaussian")
        for parent, children in families(w):
            written = touched(parent, w.buckets, Op.STORE)
            if not written:
                continue
            probed = set()
            for child in children:
                probed |= touched(child, w.buckets, Op.LOAD)
            assert probed & written, "probes must hit the parent-built buckets"
            return
        raise AssertionError("no bucket-building parent found")

    def test_sibling_s_chunks_disjoint(self):
        w = tiny_workload("join", "gaussian")
        for _, children in families(w):
            if len(children) < 2:
                continue
            chunks = [touched(c, w.s_keys, Op.LOAD) for c in children]
            for i in range(len(chunks)):
                for j in range(i + 1, len(chunks)):
                    assert len(chunks[i] & chunks[j]) <= 1  # boundary line at most
            return


class TestAMRNesting:
    def test_second_level_refinement_exists(self):
        w = tiny_workload("amr")
        found_deep = False
        for _, children in families(w):
            for child in children:
                if child.launches():
                    found_deep = True
        assert found_deep, "AMR must refine recursively"

    def test_grandchildren_reread_their_launchers_fine_rows(self):
        """The second-level refinement re-reads data its launcher wrote —
        the intra-family temporal reuse real AMR exhibits."""
        w = tiny_workload("amr")
        for _, children in families(w):
            for child in children:
                for spec in child.launches():
                    written = touched(child, w.fine, Op.STORE)
                    for grandchild in spec.bodies:
                        read = touched(grandchild, w.fine, Op.LOAD)
                        assert read and read <= written
                    return
        raise AssertionError("no grandchild found")

    def test_fine2_regions_private_per_refinement(self):
        """Each second-level refinement owns a disjoint fine2 region."""
        w = tiny_workload("amr")
        per_family = []
        for _, children in families(w):
            for child in children:
                for spec in child.launches():
                    region = set()
                    for grandchild in spec.bodies:
                        region |= touched(grandchild, w.fine2, Op.STORE)
                    per_family.append(region)
        assert per_family
        for i in range(len(per_family)):
            for j in range(i + 1, len(per_family)):
                assert not (per_family[i] & per_family[j])
