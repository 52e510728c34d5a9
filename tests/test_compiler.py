"""Tests for the compile layer: content hashing, once-per-program work,
secondary pipelines, and the serialized warm-start artifact."""

import pytest

from repro.apps import company_control, figures, stress_test
from repro.core import (
    CompilationError,
    CompiledProgram,
    Explainer,
    compilation_fingerprint,
    compile_program,
    program_key,
)
from repro.core import structural as structural_module
from repro.datalog import fact
from repro.datalog.parser import parse_program
from repro.llm import SimulatedLLM


class TestFingerprints:
    def test_fingerprint_is_deterministic(self, control_app):
        first = compilation_fingerprint(control_app.program, control_app.glossary)
        second = compilation_fingerprint(
            company_control.build().program, company_control.build().glossary
        )
        assert first == second

    def test_fingerprint_distinguishes_programs(self, control_app, stress_app):
        assert compilation_fingerprint(
            control_app.program, control_app.glossary
        ) != compilation_fingerprint(stress_app.program, stress_app.glossary)

    def test_fingerprint_distinguishes_rules(self, control_app):
        variant = parse_program(
            "sigma1: Own(x, y, s), s > 0.6 -> Control(x, y).",
            name="company_control", goal="Control",
        )
        assert compilation_fingerprint(
            variant, control_app.glossary
        ) != compilation_fingerprint(control_app.program, control_app.glossary)

    def test_fingerprint_distinguishes_enhancer_config(self, control_app):
        bare = compilation_fingerprint(control_app.program, control_app.glossary)
        seeded = compilation_fingerprint(
            control_app.program, control_app.glossary,
            llm=SimulatedLLM(seed=3, faithful=True),
        )
        reseeded = compilation_fingerprint(
            control_app.program, control_app.glossary,
            llm=SimulatedLLM(seed=4, faithful=True),
        )
        assert len({bare, seeded, reseeded}) == 3

    def test_program_key_ignores_enhancer(self, control_app):
        compiled = compile_program(
            control_app.program, control_app.glossary,
            llm=SimulatedLLM(seed=3, faithful=True),
        )
        assert compiled.program_key == program_key(
            control_app.program, control_app.glossary
        )


class TestCompileOnce:
    def test_two_instances_one_compilation(self, control_app, monkeypatch):
        """The acceptance property: compiling once and explaining across
        two different database instances performs structural analysis and
        template enhancement exactly once."""
        analysis_calls = []
        original_init = structural_module.StructuralAnalysis.__init__

        def counting_init(self, program, max_paths=10_000):
            analysis_calls.append(program.name)
            original_init(self, program, max_paths=max_paths)

        monkeypatch.setattr(
            structural_module.StructuralAnalysis, "__init__", counting_init
        )
        llm = SimulatedLLM(seed=0, faithful=True)
        compiled = control_app.compile(llm=llm)
        assert len(analysis_calls) == 1
        assert compiled.stats.enhancement_runs == 1
        enhancement_calls = llm.usage.calls
        assert enhancement_calls > 0

        first = control_app.reason([
            company_control.own("A", "B", 0.6),
            company_control.own("B", "C", 0.7),
        ])
        second = control_app.reason([
            company_control.own("X", "Y", 0.9),
        ])
        for result, query in (
            (first, fact("Control", "A", "C")),
            (second, fact("Control", "X", "Y")),
        ):
            explainer = Explainer(result, compiled=compiled)
            explanation = explainer.explain(query)
            assert explanation.text
            assert explanation.constants()

        assert len(analysis_calls) == 1, "binding re-ran structural analysis"
        assert compiled.stats.structural_analyses == 1
        assert compiled.stats.enhancement_runs == 1
        assert llm.usage.calls == enhancement_calls, "binding re-enhanced"

    def test_compiled_program_must_match_result(self, control_app, stress_app):
        compiled = compile_program(control_app.program, control_app.glossary)
        result = stress_app.reason([
            stress_test.shock("A", 6), stress_test.has_capital("A", 5),
        ])
        with pytest.raises(ValueError):
            Explainer(result, compiled=compiled)

    def test_secondary_pipeline_shared_across_bindings(self):
        scenario = figures.figure8_instance()
        compiled = scenario.application.compile()
        result = scenario.run()
        first = Explainer(result, compiled=compiled)
        # Risk is intensional but neither the goal nor critical: a
        # drill-down query forces a secondary pipeline.
        risk = next(f for f in result.derived() if f.predicate == "Risk")
        first.explain(risk)
        assert compiled.stats.secondary_pipelines == 1
        second = Explainer(scenario.run(), compiled=compiled)
        second.explain(risk)
        assert compiled.stats.secondary_pipelines == 1, "pipeline rebuilt"
        assert compiled.stats.enhancement_runs == 0, "no LLM, no enhancement"


class TestSerializedArtifact:
    def test_round_trip_restores_enhanced_texts(self, control_app):
        compiled = control_app.compile(llm=SimulatedLLM(seed=5, faithful=True))
        compiled.store.approve_all()
        payload = compiled.export_payload()
        restored = CompiledProgram.from_payload(
            payload, control_app.program, control_app.glossary
        )
        assert restored.fingerprint == compiled.fingerprint
        for original, loaded in zip(
            compiled.store.templates(), restored.store.templates()
        ):
            assert loaded.deterministic_text == original.deterministic_text
            assert loaded.enhanced_texts == original.enhanced_texts
            assert loaded.approved == original.approved

    def test_round_trip_includes_secondary_pipelines(self):
        scenario = figures.figure8_instance()
        compiled = scenario.application.compile(
            llm=SimulatedLLM(seed=2, faithful=True)
        )
        explainer = Explainer(scenario.run(), compiled=compiled)
        risk = next(
            f for f in explainer.result.derived() if f.predicate == "Risk"
        )
        explainer.explain(risk)
        payload = compiled.export_payload()
        restored = CompiledProgram.from_payload(
            payload, scenario.application.program, scenario.application.glossary
        )
        assert restored.secondary_goals() == compiled.secondary_goals()

    def test_stale_artifact_rejected(self, control_app, stress_app):
        payload = compile_program(
            control_app.program, control_app.glossary
        ).export_payload()
        with pytest.raises(CompilationError):
            CompiledProgram.from_payload(
                payload, stress_app.program, stress_app.glossary
            )

    def test_unknown_format_rejected(self, control_app):
        payload = compile_program(
            control_app.program, control_app.glossary
        ).export_payload()
        payload["format"] = "repro-compiled/999"
        with pytest.raises(CompilationError):
            CompiledProgram.from_payload(
                payload, control_app.program, control_app.glossary
            )
