"""CLI output bytes pinned by hash: each invocation's exit code and the
sha256 of its stdout and stderr, recorded before the products moved to
four-point Kronecker substitution and ray-only product frames.

The invocations are the README examples, products and pairings with and
without tails at p = 2 and 5 and relative precision 8 and 300, Laurent
products, failing ``--target`` requests and product bounds.  A change that
alters any byte of these outputs fails here; when the change is meant,
record the new hashes with the same invocations.
"""

import hashlib

import pytest

from tdlf.cli import main

SEMINORM = ('{"window":{},"left":{"kind":"const","value":0},'
            '"right":{"kind":"const","value":"-inf"},"field":"mixed"}')

# (argv, exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = [
    (["--prime", "5", "norm", "--series", "t^-3/p", "--seminorm", SEMINORM],
     0, "5963bbda826df5f6ea7dd8dd714ef1a2cbd03948e3fb4e9897e59f049b3fd4de",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "5", "classify", "--module", "O{{t}}"],
     0, "56e5bf6c14ba669d5b51b56c09acf39426cf50d1851b71d55f09d732feb09f9c",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "5", "pseudo-polar", "--module", "O{{t}}"],
     0, "917b5f0746c2f9a348e1d163cbf344a29c33cc01faf62434683626d3611b34c7",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "5", "pair", "--x", "t^-1", "--y", "2*t"],
     0, "87da06e17f2c68861df1146fb25d45e7641dbcbc5af1abad8b06d11044da6c6e",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "5", "product-bound", "--a", "O{{t}}", "--b", "rank2_mixed"],
     0, "5896826680f765cbc39b7463d9822da8d072e8bee4bfbee6a5522b829c46ed15",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "5", "valuation", "--series", "p^2*t^-1 + t", "--rank2"],
     0, "d312e9a6ed490a2bc0418aa0f165172189167c3f549e481f13d917dbcac91647",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "5", "--seed", "7", "oracle", "sample", "--module", "p{{t}}", "--count", "5"],
     0, "aae17a827fff7e130102b0f1e90c79330ae6831edc881df423d015b18eb8b905",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "2", "--precision", "8", "eval", "--series", "1/3 + 2*t - t^2/7 + p*t^3", "--times", "3 + t^-1/11 - p^2*t + t^2"],
     0, "96173407a988ad9fec4f6f59d04f185eb80d44438fb4bbc1e6bd246657b6cbc9",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "2", "--precision", "8", "pair", "--x", "1/3 + 2*t - t^2/7 + p*t^3", "--y", "3 + t^-1/11 - p^2*t + t^2"],
     0, "d8285dfe82d366f14e9cacdf0f16e55c4b14b867d4294b5afa6a69f4ea2549ae",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "2", "--precision", "8", "eval", "--series", "1/3 + 2*t - t^2/7 + tail(v>=60, left: 2, 60)", "--times", "1/p - t/3 + p*t^2 + tail(v>=50, left: 1, 50)"],
     0, "b94a3b46ee0b68c0cadc58608171bd377a74c6c997a97ecaf6959ffd23b65252",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "2", "--precision", "8", "pair", "--x", "1/3 + 2*t - t^2/7 + tail(v>=60, left: 2, 60)", "--y", "1/p - t/3 + p*t^2 + tail(v>=50, left: 1, 50)"],
     0, "69a8c4b9dde38d606f828f55178cbdca0e8b04528f18e7c88d1b9b7d25c672c6",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "2", "--precision", "8", "eval", "--series", "1/3 + 2*t - t^2/7 + O(t^6)", "--times", "t^-1/11 + 3 - p*t^3 + O(t^5)"],
     0, "2023e17e0071b9fe3a51ff1e0fde3e6a76d414bbf998398590af7265afe65907",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "2", "--precision", "300", "eval", "--series", "1/3 + 2*t - t^2/7 + p*t^3", "--times", "3 + t^-1/11 - p^2*t + t^2"],
     0, "e71470525511d47667b41d8d5ceca0723603dde7cbde5db77614ecf624e779cf",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "2", "--precision", "300", "pair", "--x", "1/3 + 2*t - t^2/7 + p*t^3", "--y", "3 + t^-1/11 - p^2*t + t^2"],
     0, "55ace6968b8e1f28d80d36d700d4fbff1a7d54d6bbe05f523492732676f3a78a",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "2", "--precision", "300", "eval", "--series", "1/3 + 2*t - t^2/7 + tail(v>=60, left: 2, 60)", "--times", "1/p - t/3 + p*t^2 + tail(v>=50, left: 1, 50)"],
     0, "0eb4405e5f85683b26f6bf71236b336786d371f33cb989c9da4492069bdd2d67",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "2", "--precision", "300", "pair", "--x", "1/3 + 2*t - t^2/7 + tail(v>=60, left: 2, 60)", "--y", "1/p - t/3 + p*t^2 + tail(v>=50, left: 1, 50)"],
     0, "53c7bfba79b89c4dd242f81fc0286f20ec8f7c1896c191991113343ed8f9215d",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "2", "--precision", "300", "eval", "--series", "1/3 + 2*t - t^2/7 + O(t^6)", "--times", "t^-1/11 + 3 - p*t^3 + O(t^5)"],
     0, "278b99c281a9c98cb1490811fcf567065a25ef87b32f2e34a4895eb59a2d2b16",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "5", "--precision", "8", "eval", "--series", "1/3 + 2*t - t^2/7 + p*t^3", "--times", "3 + t^-1/11 - p^2*t + t^2"],
     0, "8ac730dbe6dcab45c0159bb86f7676e7db5f05c9f229290c3d7c52461337ef2d",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "5", "--precision", "8", "pair", "--x", "1/3 + 2*t - t^2/7 + p*t^3", "--y", "3 + t^-1/11 - p^2*t + t^2"],
     0, "57418ed62547fdaca110a8a59f47b1f1da892e9137418f0f72e7e549e034e858",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "5", "--precision", "8", "eval", "--series", "1/3 + 2*t - t^2/7 + tail(v>=60, left: 2, 60)", "--times", "1/p - t/3 + p*t^2 + tail(v>=50, left: 1, 50)"],
     0, "cf0ddc90b2e70802851725b4ab82ab6eb5f5ce8fc847deae3b42ac3d497ca9ed",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "5", "--precision", "8", "pair", "--x", "1/3 + 2*t - t^2/7 + tail(v>=60, left: 2, 60)", "--y", "1/p - t/3 + p*t^2 + tail(v>=50, left: 1, 50)"],
     0, "120fcc5d130ea938be2bec82d0994bd1a089650df34bab6484763914fdb52e80",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "5", "--precision", "8", "eval", "--series", "1/3 + 2*t - t^2/7 + O(t^6)", "--times", "t^-1/11 + 3 - p*t^3 + O(t^5)"],
     0, "9822dca3cc9002996ccae3d4431c6575c7350d5652caed4749f60acc10b23261",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "5", "--precision", "300", "eval", "--series", "1/3 + 2*t - t^2/7 + p*t^3", "--times", "3 + t^-1/11 - p^2*t + t^2"],
     0, "011168b8546815fa6ac83e5d85949a9ec93787b41be86b2f6d116cb668e6a5f4",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "5", "--precision", "300", "pair", "--x", "1/3 + 2*t - t^2/7 + p*t^3", "--y", "3 + t^-1/11 - p^2*t + t^2"],
     0, "3fa7212b1efc56d491a2002db297d6998806ef163117058c6625bc942d72743e",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "5", "--precision", "300", "eval", "--series", "1/3 + 2*t - t^2/7 + tail(v>=60, left: 2, 60)", "--times", "1/p - t/3 + p*t^2 + tail(v>=50, left: 1, 50)"],
     0, "475f7acf3d3c6da960f8584a905fd10252bd0d43f5d2e036421e6a91cc8fd4d1",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "5", "--precision", "300", "pair", "--x", "1/3 + 2*t - t^2/7 + tail(v>=60, left: 2, 60)", "--y", "1/p - t/3 + p*t^2 + tail(v>=50, left: 1, 50)"],
     0, "031f61fd3a773778a7440c07f553379f1894cfd437f5b8c49fcd42986a927df5",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "5", "--precision", "300", "eval", "--series", "1/3 + 2*t - t^2/7 + O(t^6)", "--times", "t^-1/11 + 3 - p*t^3 + O(t^5)"],
     0, "3202374277c0de5ca59112d3bf3a1607001b1d337e6f99a46a59049ce27a4c5c",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "5", "--precision", "8", "eval", "--series", "1/3 + 2*t - t^2/7 + tail(v>=60, left: 2, 60)", "--times", "1/p - t/3 + p*t^2 + tail(v>=50, left: 1, 50)", "--target", "400"],
     3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "bbab5de2e4be60eb25f2c62dbc78775b8285bcabad5fe78a6f6ff29c3bfbf9e9"),
    (["--prime", "5", "--precision", "8", "pair", "--x", "1/3 + 2*t - t^2/7 + tail(v>=60, left: 2, 60)", "--y", "1/p - t/3 + p*t^2 + tail(v>=50, left: 1, 50)", "--target", "400"],
     3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "348328939d06cdff5e1023b0aba94f10531a93660640bef6873e9e95f92d70ce"),
    (["--prime", "5", "product-bound", "--a", "p{{t}}", "--b", "O{{t}}"],
     0, "917b5f0746c2f9a348e1d163cbf344a29c33cc01faf62434683626d3611b34c7",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["--prime", "2", "--precision", "8", "eval", "--series", "1 + t^3 + tail(v>=0, left: 1, 0)", "--times", "t^-2/p + tail(v>=4, left: 3, 2)"],
     0, "d4288ec1958d84c8882dd196e1d4d52e6d5ee871a8f9b6d415830177e836ca88",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("argv, code, out_sha, err_sha", GOLDEN, ids=range(len(GOLDEN)))
def test_cli_bytes(capsys, monkeypatch, argv, code, out_sha, err_sha):
    monkeypatch.delenv("TDLF_PRECISION", raising=False)
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(captured.err.encode()).hexdigest() == err_sha
