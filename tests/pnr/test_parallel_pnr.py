"""Engine selection and property tests of the parallel P&R engine.

The property tests pin the structural invariants the engine rests on —
the region grid tiles the fabric disjointly, the batched annealer's
merged move sequence replays serially to the same state, congestion
domains never share routing-resource nodes, and the geometry-compiled RR
graph equals the dict-built one node for node.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidRequestError
from repro.mapper.netlist import Block, BlockType, FunctionBlockNetlist, Net
from repro.pnr.fabric import FabricGrid
from repro.pnr.placement import (
    ParallelAnnealingPlacer,
    PlacementCostModel,
    RegionGrid,
    _AnnealState,
    _NetGeometry,
)
from repro.pnr.pnr import PlaceAndRoute
from repro.pnr.routing import PathFinderRouter
from repro.pnr.rrgraph import CompiledRRGraph, RoutingResourceGraph


class TestEngineSelection:
    def test_serial_engine_uses_classic_placer(self):
        from repro.pnr.placement import SimulatedAnnealingPlacer

        flow = PlaceAndRoute(engine="serial")
        assert isinstance(flow.placer, SimulatedAnnealingPlacer)
        flow = PlaceAndRoute()
        assert isinstance(flow.placer, ParallelAnnealingPlacer)

    def test_invalid_options_rejected(self):
        with pytest.raises(InvalidRequestError):
            PlaceAndRoute(engine="turbo")
        with pytest.raises(InvalidRequestError):
            PathFinderRouter(RoutingResourceGraph(FabricGrid(2, 2)), engine="turbo")


class TestRegionGridProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        width=st.integers(min_value=1, max_value=14),
        height=st.integers(min_value=1, max_value=14),
        target_span=st.integers(min_value=1, max_value=6),
    )
    def test_regions_disjointly_cover_the_fabric(self, width, height, target_span):
        grid = RegionGrid.for_fabric(width, height, target_span=target_span)
        groups = grid.sites_by_region()
        assert len(groups) == grid.n_regions
        seen = set()
        for region_id, sites in enumerate(groups):
            for site in sites:
                assert site not in seen, "regions overlap"
                seen.add(site)
                assert grid.region_of(*site) == region_id
        assert seen == {(x, y) for x in range(width) for y in range(height)}

    def test_region_shape_independent_of_jobs(self):
        # the grid is a pure function of the fabric: nothing else feeds it
        a = RegionGrid.for_fabric(9, 7)
        b = RegionGrid.for_fabric(9, 7)
        assert a == b


def random_netlist(rng: random.Random, n_blocks: int, n_nets: int, max_fanout: int):
    """A random netlist of PE blocks plus one I/O pair (mirrors the
    generator of test_properties.py)."""
    netlist = FunctionBlockNetlist("random")
    names = [f"pe{i}" for i in range(n_blocks)]
    for name in names:
        netlist.add_block(Block(name, BlockType.PE))
    netlist.add_block(Block("__in__", BlockType.IO))
    netlist.add_net(Net("io", driver="__in__", sinks=(rng.choice(names),)))
    for i in range(n_nets):
        driver = rng.choice(names)
        fanout = rng.randint(1, max_fanout)
        sinks = tuple(rng.sample(names, min(fanout, len(names))))
        netlist.add_net(Net(f"n{i}", driver=driver, sinks=sinks))
    return netlist


class TestMergedMovesReplaySerially:
    @settings(max_examples=25, deadline=None)
    @given(
        params=st.tuples(
            st.integers(min_value=2, max_value=24),   # blocks
            st.integers(min_value=1, max_value=12),   # nets
            st.integers(min_value=1, max_value=6),    # max fanout
            st.integers(min_value=0, max_value=2**16),  # seed
        ),
        temperature=st.floats(min_value=0.01, max_value=50.0),
        n_batches=st.integers(min_value=1, max_value=4),
    )
    def test_batch_moves_replay_through_cost_model(
        self, params, temperature, n_batches
    ):
        """The accepted moves of a batch, applied one by one in merge order
        through the *serial* incremental cost model, must reach the exact
        state (coordinates and total cost) the batched engine reached."""
        n_blocks, n_nets, max_fanout, seed = params
        netlist = random_netlist(random.Random(seed), n_blocks, n_nets, max_fanout)
        fabric = FabricGrid.for_netlist(netlist)
        geometry = _NetGeometry(netlist)
        state = _AnnealState(geometry, fabric, np.random.default_rng(seed))

        model = PlacementCostModel(
            netlist,
            {
                name: (int(state.xs[i]), int(state.ys[i]))
                for i, name in enumerate(geometry.block_names)
            },
        )
        region = RegionGrid.for_fabric(fabric.width, fabric.height)
        region_of_site = np.array(
            [
                region.region_of(site // fabric.height, site % fabric.height)
                for site in range(fabric.width * fabric.height)
            ],
            dtype=np.int64,
        )
        placer = ParallelAnnealingPlacer(seed=seed)
        rlim = max(fabric.width, fabric.height)
        for _ in range(n_batches):
            *_, moves = placer._batch(
                geometry, state, fabric, region_of_site,
                temperature, rlim, batch=32, collect_moves=True,
            )
            for block, tx, ty, swap in moves:
                model.propose(
                    geometry.block_names[block],
                    (tx, ty),
                    None if swap == -1 else geometry.block_names[swap],
                )
                model.commit()

        replayed = model.positions()
        for i, name in enumerate(geometry.block_names):
            assert replayed[name] == (int(state.xs[i]), int(state.ys[i]))
        assert model.full_cost() == state.total


def window_overlaps(a, b) -> bool:
    alox, ahix, aloy, ahiy = a
    blox, bhix, bloy, bhiy = b
    return not (ahix < blox or bhix < alox or ahiy < bloy or bhiy < aloy)


class TestCongestionDomainProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        windows=st.lists(
            st.tuples(
                st.integers(min_value=-2, max_value=10),
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=-2, max_value=10),
                st.integers(min_value=0, max_value=6),
            ).map(lambda t: (t[0], t[0] + t[1], t[2], t[2] + t[3])),
            min_size=1,
            max_size=14,
        )
    )
    def test_domains_partition_and_isolate(self, windows):
        domains = PathFinderRouter._domains(windows)
        flat = sorted(i for dom in domains for i in dom)
        assert flat == list(range(len(windows))), "not a partition"
        for a in range(len(domains)):
            for b in range(a + 1, len(domains)):
                for i in domains[a]:
                    for j in domains[b]:
                        assert not window_overlaps(windows[i], windows[j]), (
                            f"nets {i} and {j} overlap across domains"
                        )

    def test_disjoint_windows_share_no_rr_nodes(self):
        """The invariant the domain router rests on: nets whose windows
        are disjoint can never touch the same routing-resource node, so
        their congestion state is independent."""
        compiled = CompiledRRGraph.from_geometry(6, 6, 2)

        def nodes_in(window):
            lo_x, hi_x, lo_y, hi_y = window
            return {
                i
                for i, node in enumerate(compiled.nodes)
                if lo_x <= node.x <= hi_x and lo_y <= node.y <= hi_y
            }

        a, b = (0, 2, 0, 5), (3, 5, 0, 5)
        assert not window_overlaps(a, b)
        assert nodes_in(a)
        assert nodes_in(b)
        assert nodes_in(a).isdisjoint(nodes_in(b))


class TestCompiledGraphEquivalence:
    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 4, 3), (5, 3, 4)])
    def test_from_geometry_equals_dict_built(self, shape):
        """The geometry-compiled RR graph must match the dict-built one:
        same node ids (heap tie-breaking keys on them), same per-node edge
        sets, same attributes.  Neighbor *order* may differ — the search's
        ``(f, g, id)`` heap keys are unique, so expansion order does not
        depend on it."""
        width, height, tracks = shape
        geometric = CompiledRRGraph.from_geometry(width, height, tracks)
        dict_built = CompiledRRGraph(
            RoutingResourceGraph(
                FabricGrid(width, height), channel_width=tracks
            )._adjacency
        )
        assert geometric.nodes == dict_built.nodes
        assert [sorted(adj) for adj in geometric.neighbors] == [
            sorted(adj) for adj in dict_built.neighbors
        ]
        assert geometric.base_cost == dict_built.base_cost
        assert geometric.x == dict_built.x
        assert geometric.y == dict_built.y
