"""Tests for global placement and legalization."""

from build_oracle import check_legality, placement_hpwl
from repro.layout.floorplan import build_floorplan
from repro.layout.placer import PlacerConfig, place


class TestPlacement:
    def test_all_gates_placed(self, c432):
        placement = place(c432, config=PlacerConfig(seed=1))
        assert set(placement.gate_positions) == set(c432.gates)

    def test_all_ports_placed(self, c432):
        placement = place(c432, config=PlacerConfig(seed=1))
        for pi in c432.primary_inputs:
            assert pi in placement.port_positions
        for po in c432.primary_outputs:
            assert po in placement.port_positions

    def test_positions_inside_die(self, c432):
        placement = place(c432, config=PlacerConfig(seed=1))
        die = placement.floorplan.die
        for name, pos in placement.gate_positions.items():
            width = c432.gates[name].cell.width_um
            assert die.x_min - 1e-6 <= pos.x <= die.x_max + 1e-6
            assert die.y_min - 1e-6 <= pos.y <= die.y_max + 1e-6
            assert pos.x + width <= die.x_max + width  # sanity

    def test_legal(self, c432):
        placement = place(c432, config=PlacerConfig(seed=1))
        assert check_legality(c432, placement) == []

    def test_deterministic(self, c432):
        a = place(c432, config=PlacerConfig(seed=3))
        b = place(c432, config=PlacerConfig(seed=3))
        assert a.gate_positions == b.gate_positions

    def test_seed_changes_placement(self, c432):
        a = place(c432, config=PlacerConfig(seed=1))
        b = place(c432, config=PlacerConfig(seed=2))
        assert a.gate_positions != b.gate_positions

    def test_rows_are_respected(self, c432):
        placement = place(c432, config=PlacerConfig(seed=1))
        fp = placement.floorplan
        for pos in placement.gate_positions.values():
            offset = (pos.y - fp.die.y_min) / fp.row_height_um
            assert abs(offset - round(offset)) < 1e-6

    def test_connected_gates_are_close_on_average(self, c432, c432_layout):
        """The core property proximity attacks rely on: connected gates are
        much closer than random pairs."""
        import random
        import statistics

        from repro.layout.geometry import manhattan

        placement = c432_layout.placement
        connected = c432_layout.connected_gate_distances()
        rng = random.Random(0)
        names = list(placement.gate_positions)
        random_pairs = [
            manhattan(placement.gate_positions[rng.choice(names)],
                      placement.gate_positions[rng.choice(names)])
            for _ in range(500)
        ]
        assert statistics.median(connected) < 0.6 * statistics.median(random_pairs)

    def test_reusing_floorplan(self, c432):
        fp = build_floorplan(c432, 0.7)
        placement = place(c432, fp, config=PlacerConfig(seed=1))
        assert placement.floorplan is fp

    def test_hpwl_positive_and_reacts_to_placement(self, c432):
        good = place(c432, config=PlacerConfig(seed=1))
        assert placement_hpwl(c432, good) > 0

    def test_placement_depends_on_connectivity(self, c432):
        """Rewiring the netlist must change the placement — otherwise the
        paper's scheme could not mislead the placer."""
        modified = c432.copy("modified")
        moved = 0
        for gate in list(modified.gates.values()):
            for pin in gate.input_pin_names:
                current = gate.net_on(pin)
                if current is None:
                    continue
                for other_net in modified.nets:
                    if other_net == current:
                        continue
                    net = modified.nets[other_net]
                    if not net.has_driver():
                        continue
                    driver = net.driver
                    if driver is not None and driver[0] == gate.name:
                        continue
                    try:
                        modified.move_sink(gate.name, pin, other_net)
                        moved += 1
                    except Exception:
                        continue
                    break
                break
            if moved >= 20:
                break
        original_placement = place(c432, config=PlacerConfig(seed=1))
        modified_placement = place(modified, config=PlacerConfig(seed=1))
        assert original_placement.gate_positions != modified_placement.gate_positions
