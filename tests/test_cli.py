"""End-to-end tests for the nestcontain command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestGenerateIndexQuery:
    def test_full_pipeline(self, tmp_path, capsys) -> None:
        collection = str(tmp_path / "c.nsets")
        index_path = str(tmp_path / "c.idx")

        assert main(["generate", "--dataset", "dblp", "--size", "60",
                     "-o", collection]) == 0
        out = capsys.readouterr().out
        assert "wrote 60 records" in out

        assert main(["index", collection, "-o", index_path]) == 0
        out = capsys.readouterr().out
        assert "indexed 60 records" in out

        assert main(["info", index_path, "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "records:        60" in out

        # #article appears in every record's root set.
        assert main(["query", index_path, "{#article}",
                     "--algorithm", "bottomup"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 60
        assert "60 records" in captured.err

    def test_query_options(self, tmp_path, capsys) -> None:
        collection = str(tmp_path / "c.nsets")
        index_path = str(tmp_path / "c.idx")
        main(["generate", "--dataset", "uniform-wide", "--size", "30",
              "-o", collection])
        main(["index", collection, "--storage", "diskhash", "-o", index_path])
        capsys.readouterr()
        assert main(["query", index_path, "{}", "--storage", "diskhash",
                     "--semantics", "homeo", "--cache", "lru"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 30  # {} matches everything


class TestExplainAndSimilar:
    @pytest.fixture
    def built_index(self, tmp_path, capsys) -> str:
        collection = str(tmp_path / "c.nsets")
        index_path = str(tmp_path / "c.idx")
        main(["generate", "--dataset", "zipf-wide", "--size", "80",
              "-o", collection])
        main(["index", collection, "-o", index_path])
        capsys.readouterr()
        return index_path

    def test_explain(self, built_index, capsys) -> None:
        assert main(["explain", built_index, "{v0, {v1}}"]) == 0
        out = capsys.readouterr().out
        assert "matches=" in out
        assert "candidates=" in out
        assert out.count("node ") == 2

    def test_explain_with_options(self, built_index, capsys) -> None:
        assert main(["explain", built_index, "{v0}",
                     "--semantics", "homeo", "--mode", "anywhere"]) == 0
        assert "matches=" in capsys.readouterr().out

    def test_similar(self, built_index, capsys) -> None:
        assert main(["similar", built_index, "{v0, v1, v2}",
                     "-k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert 0 < len(lines) <= 3
        scores = [float(line.split()[0]) for line in lines]
        assert scores == sorted(scores, reverse=True)


class TestBench:
    def test_bench_prints_figure(self, capsys) -> None:
        assert main(["bench", "--dataset", "dblp", "--sizes", "40,80",
                     "--queries", "6", "--repeats", "2",
                     "--algorithms", "bottomup"]) == 0
        out = capsys.readouterr().out
        assert "bottomup" in out
        assert "bottomup+cache" in out
        assert "40" in out and "80" in out


class TestParser:
    def test_subcommand_required(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_choices_validated(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--dataset", "oracle",
                                       "-o", "x"])


class TestReport:
    def test_report_renders_saved_results(self, tmp_path, capsys) -> None:
        import json
        rows = [{"series": "topdown", "x": 1000, "millis": 5.0},
                {"series": "topdown", "x": 2000, "millis": 9.0}]
        (tmp_path / "myexp.json").write_text(json.dumps(rows))
        assert main(["report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "== myexp ==" in out
        assert "topdown" in out

    def test_report_single_experiment(self, tmp_path, capsys) -> None:
        import json
        rows = [{"series": "s", "x": "subset", "millis": 2.0}]
        (tmp_path / "joins.json").write_text(json.dumps(rows))
        assert main(["report", "--dir", str(tmp_path),
                     "--experiment", "joins"]) == 0
        assert "#" in capsys.readouterr().out

    def test_report_empty_dir(self, tmp_path, capsys) -> None:
        assert main(["report", "--dir", str(tmp_path)]) == 0
        assert "no results" in capsys.readouterr().out


class TestCheckCommand:
    def test_healthy_index(self, tmp_path, capsys) -> None:
        collection = str(tmp_path / "c.nsets")
        index_path = str(tmp_path / "c.idx")
        main(["generate", "--dataset", "dblp", "--size", "30",
              "-o", collection])
        main(["index", collection, "-o", index_path])
        capsys.readouterr()
        assert main(["check", index_path]) == 0
        assert "healthy" in capsys.readouterr().out


class TestQueriesFile:
    @pytest.fixture
    def built_index(self, tmp_path, capsys) -> str:
        collection = str(tmp_path / "c.nsets")
        index_path = str(tmp_path / "c.idx")
        main(["generate", "--dataset", "dblp", "--size", "40",
              "-o", collection])
        main(["index", collection, "-o", index_path])
        capsys.readouterr()
        return index_path

    def test_batch_from_file(self, built_index, tmp_path,
                             capsys) -> None:
        queries_path = tmp_path / "queries.txt"
        queries_path.write_text("{#article}\n"
                                "# a comment line, skipped\n"
                                "\n"
                                "{no_such_atom}\n")
        assert main(["query", built_index, "--queries-file",
                     str(queries_path)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 2            # one line per query
        assert len(lines[0].split("\t")) == 40  # every record matches
        assert lines[1] == ""             # no hits -> empty line
        assert "2 queries" in captured.err
        assert "batched" in captured.err

    def test_batch_from_stdin(self, built_index, capsys,
                              monkeypatch) -> None:
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("{#article}\n"))
        assert main(["query", built_index, "--queries-file", "-"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1

    def test_batch_matches_single_queries(self, built_index, tmp_path,
                                          capsys) -> None:
        queries = ["{#article}", "{no_such_atom}"]
        singles = []
        for query in queries:
            assert main(["query", built_index, query]) == 0
            singles.append(capsys.readouterr().out.strip().splitlines())
        queries_path = tmp_path / "q.txt"
        queries_path.write_text("\n".join(queries) + "\n")
        assert main(["query", built_index, "--queries-file",
                     str(queries_path)]) == 0
        batched = [line.split("\t") if line else []
                   for line in capsys.readouterr().out.splitlines()]
        assert batched == singles

    def test_query_and_file_mutually_exclusive(self, built_index,
                                               tmp_path,
                                               capsys) -> None:
        queries_path = tmp_path / "q.txt"
        queries_path.write_text("{a}\n")
        assert main(["query", built_index, "{a}", "--queries-file",
                     str(queries_path)]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["query", built_index]) == 2


class TestServeCommand:
    def test_serve_and_info_server(self, tmp_path, capsys) -> None:
        import threading

        collection = str(tmp_path / "c.nsets")
        index_path = str(tmp_path / "c.idx")
        main(["generate", "--dataset", "dblp", "--size", "30",
              "-o", collection])
        main(["index", collection, "-o", index_path])
        capsys.readouterr()

        from repro.core.engine import NestedSetIndex
        from repro.server import ServerThread, ServiceClient

        with NestedSetIndex.open("diskhash", index_path) as index:
            with ServerThread(index, batch_window_ms=1,
                              close_index_on_drain=False) as handle:
                with ServiceClient(port=handle.port) as client:
                    served = client.query("{#article}")
                assert main(["info", "--server",
                             f"127.0.0.1:{handle.port}"]) == 0
                out = capsys.readouterr().out
                assert "requests:" in out
                assert "coalesce ratio" in out
                assert "latency:" in out
            truth = index.query("{#article}")
        assert served == truth

    def test_info_requires_index_or_server(self, capsys) -> None:
        assert main(["info"]) == 2
        assert "--server" in capsys.readouterr().err

    def test_serve_parser_defaults(self) -> None:
        args = build_parser().parse_args(["serve", "x.idx"])
        assert args.func.__name__ == "_cmd_serve"
        assert args.max_inflight == 64
        assert args.batch_window_ms == 2.0
        assert args.cache == "frequency"
