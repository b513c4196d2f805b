"""Behaviour contract: the ``--json`` report of every command on every bundled
preset is byte-identical across refactors.

Each preset is emitted with its sample deformation map and run in-process
through ``cli.main``.  The table holds the exit code and the SHA-256 digest
of standard output, recorded before the exact linear algebra was moved onto
the single sparse echelon engine.  A mismatch prints the new output.

``GOLDEN_KAPPA`` pins how deformation maps are emitted and checked: the
``preset --with-kappa`` document itself, ``--json solve --fix-linear-zero``,
and ``--json check`` on the preset map with ``kappa.linear[0][0]`` raised by
one (it fails condition (a) on every preset, and (b) on ha1), recorded
before deformation maps were stored sparse.
"""

import hashlib
import json

import pytest

from hopfpbw.cli import main, emit_preset
from hopfpbw.scalar import Scalar, parse_scalar, format_scalar

GOLDEN = {
    ("sweedler", "validate"): (0, "09550cf430e79a6c7982072df7b3c63e2a8b8a417242475aea72aede5a4e84eb"),
    ("sweedler", "check"): (0, "e1e8ed84e9c1722bcddfb4da60c52e310dd7bdfbe68a4e224ee15d1997186cf5"),
    ("sweedler", "solve"): (0, "9fca61057315070efbe202a0bafb72c433358e7be9bc0d0318c9092cf0bcd2f4"),
    ("sweedler", "oracle"): (0, "95934646215c51ddf277c0f12c6c4b5fb8d171d1b53047b2cafa14a578632ed3"),
    ("sweedler", "koszul"): (0, "bd1304376b94e4be62777860b2b3f059f106f0ead8a34b3e003cf50d18f98dd7"),
    ("taft-3", "validate"): (0, "1c7f820b721054b393087c87977fc8ff3a70137435f5469c1f9b14502db9f9c7"),
    ("taft-3", "check"): (0, "e1e8ed84e9c1722bcddfb4da60c52e310dd7bdfbe68a4e224ee15d1997186cf5"),
    ("taft-3", "solve"): (0, "080f0ae3f954a4f5affa549414f62315a475fd4b1c9b164cf4f5cce38b1d59b3"),
    ("taft-3", "oracle"): (0, "6e376aa888423adbb48e860cabff7c3bddc30172882ef07d2cdbf2a8b2c6884d"),
    ("taft-3", "koszul"): (0, "bd1304376b94e4be62777860b2b3f059f106f0ead8a34b3e003cf50d18f98dd7"),
    ("taft-5", "validate"): (0, "727c7dcfb25ae521e606fd336389b1f549fd31e2b44434e8bc72143992598f4c"),
    ("taft-5", "check"): (0, "e1e8ed84e9c1722bcddfb4da60c52e310dd7bdfbe68a4e224ee15d1997186cf5"),
    ("taft-5", "solve"): (0, "7b3b1349326aaf232b51d873cf4b789b46053187a4c17f2b07749ecf3967d5b7"),
    ("taft-5", "oracle"): (0, "2f289859b74c5ec0aa294a9eb3585d91d09c916d4b43d4c883b249d6e795050c"),
    ("taft-5", "koszul"): (0, "bd1304376b94e4be62777860b2b3f059f106f0ead8a34b3e003cf50d18f98dd7"),
    ("h8", "validate"): (0, "3dcd1927ba96020751f9a69be83bcf6939b3a25d26d7a8b8fcc7b9e601a74f2f"),
    ("h8", "check"): (0, "e1e8ed84e9c1722bcddfb4da60c52e310dd7bdfbe68a4e224ee15d1997186cf5"),
    ("h8", "solve"): (0, "a78d0c9e437e1dcac3130f1652fa7749db44fdcdebe952870e6963813144bebb"),
    ("h8", "oracle"): (0, "70e7306ebfb9c2f1c7615e1385ab37780424cc5c6e3c05c5b71ae1be7fb7a63c"),
    ("h8", "koszul"): (0, "bd1304376b94e4be62777860b2b3f059f106f0ead8a34b3e003cf50d18f98dd7"),
    ("ha1", "validate"): (0, "b3349eeb5248f5225c907125b82df030205c3bbfca6de080c8f88e0ce6d555f2"),
    ("ha1", "check"): (0, "a0013c5126b6021155466a03b30c1d40b5d27e654721abd397743f4b5d16883b"),
    ("ha1", "solve"): (0, "25211a6704c627de05c37b69969f8bb730794d8d45cb1d62abf5f86b01be2122"),
    ("ha1", "oracle"): (0, "292293fd4e2efb8869e04b7b160a9788c8801ab9dc62f5300caa44bccc5e5153"),
    ("ha1", "koszul"): (0, "29c2d9a2660322ed7653dd42364c926d70781b94f236c0908ef61040568ec195"),
    ("cbh-cyclic-3", "validate"): (0, "bcaadc3ff4821c2f0005b107ee70c7c8f39a7c958f5175e2c2cc98438de5352c"),
    ("cbh-cyclic-3", "check"): (0, "e1e8ed84e9c1722bcddfb4da60c52e310dd7bdfbe68a4e224ee15d1997186cf5"),
    ("cbh-cyclic-3", "solve"): (0, "2ccf82fa14907e13f104c3b96c725802c253d28cbbc7b21bb39590da9873fb1d"),
    ("cbh-cyclic-3", "oracle"): (0, "9efadfa530879043808e5111397aab7029ee73842b76838f1eab373a66a67ea6"),
    ("cbh-cyclic-3", "koszul"): (0, "bd1304376b94e4be62777860b2b3f059f106f0ead8a34b3e003cf50d18f98dd7"),
    ("cbh-cyclic-4", "validate"): (0, "09550cf430e79a6c7982072df7b3c63e2a8b8a417242475aea72aede5a4e84eb"),
    ("cbh-cyclic-4", "check"): (0, "e1e8ed84e9c1722bcddfb4da60c52e310dd7bdfbe68a4e224ee15d1997186cf5"),
    ("cbh-cyclic-4", "solve"): (0, "bd39a41670496710da6fe82b792f5e7cf3ad75dc67db07f0e11494bc78ff0e5a"),
    ("cbh-cyclic-4", "oracle"): (0, "95934646215c51ddf277c0f12c6c4b5fb8d171d1b53047b2cafa14a578632ed3"),
    ("cbh-cyclic-4", "koszul"): (0, "bd1304376b94e4be62777860b2b3f059f106f0ead8a34b3e003cf50d18f98dd7"),
}


@pytest.mark.parametrize("name,command", sorted(GOLDEN))
def test_json_output_matches_golden(tmp_path, capsys, name, command):
    path = tmp_path / f"{name}.json"
    emit_preset(name, str(path), with_kappa=True)
    rc = main(["--json", command, str(path)])
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (rc, digest) == GOLDEN[(name, command)], out


GOLDEN_KAPPA = {
    ("sweedler", "preset"): (0, "597185a994b00ab8ff1122286740fca84110c26963d147ce90c49bbdc85a0e29"),
    ("sweedler", "solve-linear-zero"): (0, "4b175725b8398769e9cca95df254e5eb96a1691595c3198441be2e5eb827824b"),
    ("sweedler", "check-perturbed"): (3, "14c78b682e3278d271d3b26b10f1315a5b30defe9ee378acf572f91d16fefbf5"),
    ("taft-3", "preset"): (0, "b46b2f253e1851784588aea107ba0ef2166450f33bc072ac86126be9eee4cd4b"),
    ("taft-3", "solve-linear-zero"): (0, "3d156297312a1dc20c87da5db10e793f5da828a2066bb15b146d83999fd476ea"),
    ("taft-3", "check-perturbed"): (3, "1d8838ff906b495ef469717eb738688c3d94e9a30af514e3bea2cd2d04067fd0"),
    ("taft-5", "preset"): (0, "908cc053c4d5706a17f193ea7eed3c8d2d7d0864a44939ae287a54bf0503dc01"),
    ("taft-5", "solve-linear-zero"): (0, "02190858775b43bbd6e2925a78caa7adea92b6b2d3a81bfb62eb395163e2063b"),
    ("taft-5", "check-perturbed"): (3, "e71bab43130b7e6faa8b98d6adb127e1bc281ac3cdc1da629842262d03e4f0c3"),
    ("h8", "preset"): (0, "3335183e9ea5c8a540cbf1a651940df6a1eefd86a1fb7ab8c0aa581a984aa3b1"),
    ("h8", "solve-linear-zero"): (0, "a78d0c9e437e1dcac3130f1652fa7749db44fdcdebe952870e6963813144bebb"),
    ("h8", "check-perturbed"): (3, "dd3832769d874b7ba14127cdc747b7d502dcedaceb0cbcdf387f6839b4f35158"),
    ("ha1", "preset"): (0, "9761696e31a55d0d6713448a62f2cff74e2f70c680505613c7ed3077becd52f7"),
    ("ha1", "solve-linear-zero"): (0, "25211a6704c627de05c37b69969f8bb730794d8d45cb1d62abf5f86b01be2122"),
    ("ha1", "check-perturbed"): (3, "18d621dd869afa53d1e0282822c2717a1ec4b1a673e0bed08359328453979df6"),
    ("cbh-cyclic-3", "preset"): (0, "7fbbce19805d079058a713a62b131599f98829dd7b1e51ed63854b528e1b7283"),
    ("cbh-cyclic-3", "solve-linear-zero"): (0, "2ccf82fa14907e13f104c3b96c725802c253d28cbbc7b21bb39590da9873fb1d"),
    ("cbh-cyclic-3", "check-perturbed"): (3, "baab7420a58b52f9bec19114c75f5d702f100e658a139c89bbad030c34d0ffbf"),
    ("cbh-cyclic-4", "preset"): (0, "a004556c88774a628d2ef28f2c37887e20a98be38a0bb42b67c41b161768b3a7"),
    ("cbh-cyclic-4", "solve-linear-zero"): (0, "bd39a41670496710da6fe82b792f5e7cf3ad75dc67db07f0e11494bc78ff0e5a"),
    ("cbh-cyclic-4", "check-perturbed"): (3, "cd539980373f1991db6ba64b54e93bedf2bf0ec030d2d1ab0dbd7663732979c2"),
}


def _perturb_linear(path):
    doc = json.loads(path.read_text())
    order = doc["field"]["cyclotomic_order"]
    row = doc["kappa"]["linear"][0]
    row[0] = format_scalar(parse_scalar(row[0], order) + Scalar.one(order))
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("name,variant", sorted(GOLDEN_KAPPA))
def test_kappa_output_matches_golden(tmp_path, capsys, name, variant):
    path = tmp_path / f"{name}.json"
    emit_preset(name, str(path), with_kappa=True)
    if variant == "preset":
        argv = ["preset", name, "--with-kappa"]
    elif variant == "solve-linear-zero":
        argv = ["--json", "solve", str(path), "--fix-linear-zero"]
    else:
        _perturb_linear(path)
        argv = ["--json", "check", str(path)]
    rc = main(argv)
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (rc, digest) == GOLDEN_KAPPA[(name, variant)], out
